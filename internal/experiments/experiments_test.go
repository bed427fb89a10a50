package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"unistore/internal/trace"
)

// The experiments are validated at reduced scale: each must run, and
// its headline claim must hold in shape.

func TestE1EighteenEntries(t *testing.T) {
	tab := E1TriplePlacement()
	found := false
	for _, row := range tab.Rows() {
		if strings.HasPrefix(row[0], "TOTAL") {
			found = true
			if row[1] != "18" {
				t.Errorf("total entries = %s, want 18", row[1])
			}
		}
	}
	if !found {
		t.Fatal("no TOTAL row")
	}
}

func TestE2Logarithmic(t *testing.T) {
	tab := E2RoutingHops(0.25) // up to 256 peers
	for _, row := range tab.Rows() {
		avg, _ := strconv.ParseFloat(row[1], 64)
		log2, _ := strconv.ParseFloat(row[3], 64)
		if avg > log2+1 {
			t.Errorf("peers=%s: avg hops %.2f exceeds log2+1=%.2f", row[0], avg, log2+1)
		}
	}
}

func TestE3LatencySeconds(t *testing.T) {
	tab := E3QueryLatency(0.25) // up to 100 peers
	for _, row := range tab.Rows() {
		if !strings.Contains(row[1], "ms") && !strings.Contains(row[1], "s") {
			t.Errorf("latency cell unparsable: %q", row[1])
		}
	}
}

func TestE4VariantsDiffer(t *testing.T) {
	tab := E4PlanVariants(0.5)
	msgs := map[string]string{}
	for _, row := range tab.Rows() {
		msgs[row[0]] = row[1]
	}
	if msgs["optimizer on (auto)"] == msgs["force broadcast"] {
		t.Error("optimizer-on and broadcast variants should differ in messages")
	}
	// Results must agree across variants.
	var results []string
	for _, row := range tab.Rows() {
		results = append(results, row[3])
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("plan variants disagree on results: %v", results)
		}
	}
	// The optimizer is no worse than the best forced plan.
	auto, _ := strconv.Atoi(msgs["optimizer on (auto)"])
	for name, m := range msgs {
		if n, _ := strconv.Atoi(m); strings.HasPrefix(name, "force ") && n < auto {
			t.Errorf("optimizer on sent %d messages, %s only %d", auto, name, n)
		}
	}
}

func TestE5QGramWins(t *testing.T) {
	tab := E5Similarity(0.25)
	for _, row := range tab.Rows() {
		qm, _ := strconv.Atoi(row[1])
		bm, _ := strconv.Atoi(row[2])
		if qm >= bm {
			t.Errorf("confs=%s: qgram %d msgs >= broadcast %d", row[0], qm, bm)
		}
		if row[3] != row[4] {
			t.Errorf("confs=%s: access paths disagree (%s vs %s)", row[0], row[3], row[4])
		}
	}
}

func TestE6AdaptiveBalances(t *testing.T) {
	tab := E6LoadBalance(0.25)
	rows := tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	maxBal, _ := strconv.Atoi(rows[0][1])
	maxAda, _ := strconv.Atoi(rows[1][1])
	if maxAda >= maxBal {
		t.Errorf("adaptive max load %d must beat balanced %d", maxAda, maxBal)
	}
}

func TestE7SkylineRuns(t *testing.T) {
	tab := E7Skyline(0.25)
	for _, row := range tab.Rows() {
		size, _ := strconv.Atoi(row[1])
		if size <= 0 {
			t.Errorf("empty skyline at persons=%s", row[0])
		}
		topM, _ := strconv.Atoi(row[4])
		fullM, _ := strconv.Atoi(row[5])
		if topM <= 0 || fullM <= 0 {
			t.Errorf("missing message counts: %v", row)
		}
	}
}

func TestE8AntiEntropyRepairs(t *testing.T) {
	tab := E8Updates(0.5)
	for _, row := range tab.Rows() {
		if row[3] != "true" {
			t.Errorf("loss=%s: anti-entropy did not repair (%v)", row[0], row)
		}
	}
	// At zero loss all three replicas are fresh immediately.
	if tab.Rows()[0][1] != "3" {
		t.Errorf("zero loss should reach all 3 replicas eagerly: %v", tab.Rows()[0])
	}
}

func TestE9PGridPrunes(t *testing.T) {
	tab := E9RangeVsChord(0.25)
	for _, row := range tab.Rows() {
		pg, _ := strconv.Atoi(row[2])
		ch, _ := strconv.Atoi(row[3])
		if pg >= ch {
			t.Errorf("peers=%s sel=%s: P-Grid %d msgs >= Chord %d", row[0], row[1], pg, ch)
		}
		if row[4] != row[5] {
			t.Errorf("result disagreement: %v", row)
		}
	}
}

func TestE10MappingsDoubleRecall(t *testing.T) {
	tab := E10Mappings(0.5)
	rows := tab.Rows()
	plain, _ := strconv.Atoi(rows[0][1])
	mapped, _ := strconv.Atoi(rows[1][1])
	if mapped != 2*plain {
		t.Errorf("mapped recall %d, want exactly double %d", mapped, plain)
	}
}

func TestE11MergeReachability(t *testing.T) {
	tab := E11Merge(0.5)
	row := tab.Rows()[0]
	for _, cell := range []string{row[2], row[3]} {
		parts := strings.Split(cell, "/")
		ok, _ := strconv.Atoi(parts[0])
		total, _ := strconv.Atoi(parts[1])
		if ok*10 < total*8 {
			t.Errorf("post-merge reachability too low: %s", cell)
		}
	}
}

func TestE12PaperQueryValid(t *testing.T) {
	tab := E12PaperQuery(0.25)
	row := tab.Rows()[0]
	if row[4] != "true" {
		t.Errorf("skyline invariant violated: %v", row)
	}
	n, _ := strconv.Atoi(row[1])
	if n <= 0 {
		t.Errorf("paper query returned no results: %v", row)
	}
}

// messageCells collects a table's message counts from every column
// that counts messages, keyed "r<row index>:<first cell> / <column>"
// (scaled-down tables can repeat a first cell).
func messageCells(tab *trace.Series) map[string]int {
	out := map[string]int{}
	for r, row := range tab.Rows() {
		for i, col := range tab.Columns {
			if !strings.Contains(col, "msgs") && !strings.Contains(col, "messages") {
				continue
			}
			if n, err := strconv.Atoi(row[i]); err == nil {
				out[fmt.Sprintf("r%d:%s / %s", r, row[0], col)] = n
			}
		}
	}
	return out
}

// TestExperimentMessageCeilings pins the message counts of the
// experiments whose queries join (at the scales the tests above use)
// at their measured values: an access-path choice that looks cheap
// to the cost model but costs more on the overlay, such as probing
// every binding's subject through cold routing caches, fails here.
func TestExperimentMessageCeilings(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tab      *trace.Series
		ceilings map[string]int
	}{
		{"E3", E3QueryLatency(0.25), map[string]int{
			"r0:50 / messages": 10, "r1:100 / messages": 14,
			"r2:200 / messages": 2, "r3:100 / messages": 14,
		}},
		{"E4", E4PlanVariants(0.5), map[string]int{"r0:optimizer on (auto) / messages": 7}},
		{"E7", E7Skyline(0.25), map[string]int{
			"r0:100 / sky msgs": 15, "r0:100 / top10 msgs": 14, "r0:100 / orderby msgs": 14,
			"r1:100 / sky msgs": 15, "r1:100 / top10 msgs": 14, "r1:100 / orderby msgs": 14,
		}},
		{"E10", E10Mappings(0.5), map[string]int{
			"r0:without mappings / messages": 5, "r1:with mappings (automatic) / messages": 12,
		}},
		{"E12", E12PaperQuery(0.25), map[string]int{"r0:16 / messages": 14}},
	} {
		got := messageCells(tc.tab)
		for cell, ceiling := range tc.ceilings {
			n, ok := got[cell]
			if !ok {
				t.Errorf("%s: no cell %q in %v", tc.name, cell, got)
				continue
			}
			if n > ceiling {
				t.Errorf("%s %s: %d messages, ceiling %d", tc.name, cell, n, ceiling)
			}
		}
	}
}
