package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := relSpread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
}

func TestBestOf(t *testing.T) {
	xs := []float64{3, 9, 1, 4}
	if got := bestOf(xs, "higher"); got != 9 {
		t.Errorf("bestOf higher = %v, want 9", got)
	}
	if got := bestOf(xs, "lower"); got != 1 {
		t.Errorf("bestOf lower = %v, want 1", got)
	}
}

func drawReads(p *pool, seed int64, n int) []int {
	s := newReadStream(p, seed)
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	ds := generateDataset(100)
	for _, name := range workloadNames() {
		p := buildPool(name, ds)
		a, b, c := drawReads(p, 7, 500), drawReads(p, 7, 500), drawReads(p, 8, 500)
		same, differs := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differs = differs || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: equal seeds gave different read streams", name)
		}
		if !differs && len(p.texts) > len(p.classes) {
			t.Errorf("%s: different seeds gave the same read stream", name)
		}
	}
	w1, w2, w3 := newWriteStream(7), newWriteStream(7), newWriteStream(8)
	differs := false
	overwrites, seen := 0, map[string]bool{}
	for i := 0; i < 1000; i++ {
		o1, v1 := w1.next()
		o2, v2 := w2.next()
		o3, _ := w3.next()
		if o1 != o2 || v1 != v2 {
			t.Fatalf("write op %d: equal seeds diverged: %s=%s vs %s=%s", i, o1, v1, o2, v2)
		}
		differs = differs || o1 != o3
		if seen[o1] {
			overwrites++
		}
		seen[o1] = true
	}
	if !differs {
		t.Error("different seeds gave the same write stream")
	}
	if overwrites != 200 {
		t.Errorf("overwrites = %d of 1000, want exactly 200 (20 %%)", overwrites)
	}
}

func TestScanAggSharesAreExact(t *testing.T) {
	p := scanAggPool(generateDataset(100))
	if len(p.cycle) != 20 {
		t.Fatalf("scan_agg cycle has %d slots, want 20", len(p.cycle))
	}
	got := map[string]int{}
	for _, q := range drawReads(p, 1, 2000) {
		got[p.className(q)]++
	}
	for _, s := range scanAggShares {
		if want := 2000 * s.slots / 20; got[s.name] != want {
			t.Errorf("shape %s: %d of 2000 ops, want %d", s.name, got[s.name], want)
		}
	}
}

func TestPointLookupMix(t *testing.T) {
	p := pointLookupPool(generateDataset(100))
	byOID, attrs, families := 0, map[string]bool{}, map[string]bool{}
	for _, ci := range p.cycle {
		name := p.classes[ci].name
		parts := strings.Split(name, ".")
		if parts[0] == "oid" {
			byOID++
			families[parts[1]] = true
		} else {
			attrs[parts[1]] = true
		}
	}
	if byOID*2 != len(p.cycle) {
		t.Errorf("%d of %d cycle slots are OID lookups, want half", byOID, len(p.cycle))
	}
	if len(families) != 3 || len(attrs) < 6 {
		t.Errorf("OID families %v (want 3), value attributes %v (want >= 6)", families, attrs)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := benchMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "read_ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m            benchMetric
		a, b, spread float64
		want         string
	}{
		{lower, 1.0, 1.05, 0, verdictOK},
		{lower, 1.0, 1.11, 0, verdictBreach},
		{lower, 1.0, 0.50, 0, verdictOK}, // better is never a breach
		{higher, 1000, 950, 0, verdictOK},
		{higher, 1000, 880, 0, verdictBreach},
		{higher, 1000, 2000, 0, verdictOK},
		{higher, 1000, 990, 0.15, verdictUnresolved}, // the run's own spread is wider than the bound
		{higher, 1000, 870, 0.15, verdictUnresolved}, // beyond the bound, but inside the spread
		{higher, 1000, 800, 0.15, verdictBreach},     // beyond both: a breach stays a breach
		{lower, 1.0, 1.36, 0.40, verdictUnresolved},  // a noisy p99
		{lower, 1.0, 1.36, 0.05, verdictBreach},
	} {
		if got := judge(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("judge(%s, %v → %v, spread %v) = %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func syntheticSet(readOps, p50, failRatio float64) *resultSet {
	return &resultSet{Seed: 1, Seconds: 12, Persons: defaultPersons, Results: []*result{
		{
			Workload: "point_lookup", FailRatio: failRatio,
			Metrics: map[string]metricValue{
				"read_ops_per_s": {Value: readOps, Unit: "ops/s"},
				"read_p50_ms":    {Value: p50, Unit: "ms"},
			},
		},
		{Workload: "point_lookup", Trace: 1, Metrics: map[string]metricValue{"netx.drops": {Unit: "count"}}},
	}}
}

func TestCompareSets(t *testing.T) {
	bf := &benchmarkFile{
		EndToEnd: []benchMetric{
			{Name: "read_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
			{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
		PerLayer: []benchMetric{{Name: "netx.drops", Unit: "count", Better: "lower"}},
	}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "point_lookup"})
	base := func() *resultSet { return syntheticSet(1000, 1, 0) }
	for _, c := range []struct {
		name string
		b    *resultSet
		want int
	}{
		{"identical sets", base(), 0},
		{"two regressions", syntheticSet(850, 1.2, 0), 2},
		{"any rise of fail_ratio", syntheticSet(1000, 1, 0.001), 1},
	} {
		var out bytes.Buffer
		n, err := compareSets(bf, base(), c.b, &out)
		if err != nil || n != c.want {
			t.Errorf("%s: %d breaches (err %v), want %d\n%s", c.name, n, err, c.want, out.String())
		}
		if c.want == 0 && !strings.Contains(out.String(), "(equal)") {
			t.Errorf("identical values are not marked equal:\n%s", out.String())
		}
	}

	// What cannot be compared is an error, not a pass.
	otherSeed, otherSize := base(), base()
	otherSeed.Seed = 2
	otherSize.Persons = smokePersons
	noWorkload, noLayers := base(), base()
	noWorkload.Results = nil
	noLayers.Results = noLayers.Results[:1]
	noMetric, noLayerMetric := base(), base()
	delete(noMetric.Results[0].Metrics, "read_p50_ms")
	delete(noLayerMetric.Results[1].Metrics, "netx.drops")
	for name, b := range map[string]*resultSet{
		"seed": otherSeed, "dataset size": otherSize, "workload": noWorkload, "trace 1 result": noLayers,
		"end-to-end metric": noMetric, "per-layer metric": noLayerMetric,
	} {
		if _, err := compareSets(bf, base(), b, io.Discard); err == nil {
			t.Errorf("B with another or no %s: compared without error", name)
		}
		if _, err := compareSets(bf, b, base(), io.Discard); err == nil {
			t.Errorf("A with another or no %s: compared without error", name)
		}
	}
}

// TestFoldChargesEveryInstantOnce builds one op by hand: parse 0-10,
// plan 10-20, run 20-100 holding a send 30-40 (with its encode 32-38),
// a transit 38-70 (with its decode 60-68) and a handler 70-90.
func TestFoldChargesEveryInstantOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: spanOp, Start: 0, End: 105},
		{ID: 2, Parent: 1, Op: 1, Name: spanParse, Start: 0, End: 10},
		{ID: 3, Parent: 1, Op: 1, Name: spanPlan, Start: 10, End: 20},
		{ID: 4, Parent: 1, Op: 1, Name: spanRun, Start: 20, End: 100},
		{ID: 5, Parent: 4, Op: 1, Name: spanSend, Kind: "pgrid.mlookup", Start: 30, End: 40, Remote: true},
		{ID: 6, Parent: 5, Op: 1, Name: spanEncode, Start: 32, End: 38},
		{ID: 7, Parent: 5, Op: 1, Name: spanTransit, Kind: "pgrid.mlookup", Start: 38, End: 70},
		{ID: 8, Parent: 5, Op: 1, Name: spanDecode, Start: 60, End: 68},
		{ID: 9, Parent: 5, Op: 1, Name: spanHandler, Kind: "pgrid.mlookup", Start: 70, End: 90},
		{ID: 10, Op: 0, Name: spanHandler, Kind: "pgrid.gossip", Start: 0, End: 500}, // background: no op
	}
	lt := fold(spans)
	want := map[string]int64{
		spanOp: 5, spanParse: 10, spanPlan: 10,
		spanRun:    20, // 20-30 and 90-100
		spanSend:   4,  // 30-32 and 38-40: the send outranks the transit it overlaps
		spanEncode: 6, spanTransit: 22, spanDecode: 8, spanHandler: 20,
	}
	var total int64
	for name, w := range want {
		if lt.selfNs[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, lt.selfNs[name], w)
		}
		total += lt.selfNs[name]
	}
	if total != 105 || lt.wallNs != 105 {
		t.Errorf("self times sum to %d over a wall of %d, want 105 and 105", total, lt.wallNs)
	}
	if lt.ops != 1 || lt.remoteOps != 1 || lt.sends != 1 {
		t.Errorf("ops=%d remoteOps=%d sends=%d, want 1 1 1", lt.ops, lt.remoteOps, lt.sends)
	}
	if lt.transitCnt != 1 || lt.transitNs != 32-8 {
		t.Errorf("transit: %d spans, %d ns; want 1 span of 24 ns (decode excluded)", lt.transitCnt, lt.transitNs)
	}
	if got := lt.accounted(); math.Abs(got-100.0/105) > 1e-9 {
		t.Errorf("accounted = %v, want %v", got, 100.0/105)
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm("# TYPE unistore_net_frames_out counter\nunistore_net_frames_out 42\n" +
		"unistore_h_bucket{le=\"1\"} 3\nunistore_pgrid_flow_pressure 0.25\n")
	if m["unistore_net_frames_out"] != 42 || m["unistore_pgrid_flow_pressure"] != 0.25 || len(m) != 2 {
		t.Errorf("parseProm = %v", m)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables in
// metrics.go and workloads.go, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %s %s %s %v", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs, true)
	check("per_layer", bf.PerLayer, perLayerDefs, false)
	if len(perLayerDefs) > 128 || len(endToEndDefs) > 16 {
		t.Errorf("too many metrics: %d end-to-end (max 16), %d per-layer (max 128)", len(endToEndDefs), len(perLayerDefs))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

// TestReadmeGlossary: every metric and workload is explained by name.
func TestReadmeGlossary(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		name := d.name
		// Families are documented once, with a placeholder.
		for _, fam := range []string{"wire.roundtrip_us.", "wire.roundtrip_allocs.", "wire.bytes.", "wire.model_ratio.", "pgrid.handler_us.", "physical.shape."} {
			if strings.HasPrefix(name, fam) {
				name = fam
			}
		}
		if !strings.Contains(text, name) {
			t.Errorf("README.md does not mention metric %s", d.name)
		}
	}
	for _, w := range workloadDefs {
		if !strings.Contains(text, w.name) {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
}

// TestSmoke boots real daemons: every workload, untraced and traced,
// at toy size. Opt in with BENCH_SMOKE=1.
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run every workload at toy size on real daemons")
	}
	defer cleanupAll()
	if err := smoke(options{seed: 1}); err != nil {
		t.Fatal(err)
	}
}
