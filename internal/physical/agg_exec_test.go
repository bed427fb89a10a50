package physical_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	. "unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// aggTestCorpus: 40 persons over 4 groups with ages, some persons
// lacking an age triple (NULL semantics), plus enough values for
// grouped MIN/MAX spread.
func aggTestCorpus() []triple.Triple {
	var ts []triple.Triple
	groups := []string{"db", "os", "net", "ai"}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("p%02d", i)
		ts = append(ts, triple.T(id, "group", groups[i%len(groups)]))
		if i%7 != 0 {
			ts = append(ts, triple.TN(id, "age", float64(20+i%13)))
		}
	}
	return ts
}

var aggQueries = []string{
	`SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g`,
	`SELECT ?g, count(?a) AS ?n, sum(?a) AS ?s, avg(?a) AS ?m, min(?a) AS ?lo, max(?a) AS ?hi
		WHERE {(?p,'group',?g) (?p,'age',?a)} GROUP BY ?g`,
	`SELECT ?g, count(DISTINCT ?a) AS ?d WHERE {(?p,'group',?g) (?p,'age',?a)} GROUP BY ?g HAVING ?d >= 3`,
	`SELECT count(*) WHERE {(?p,'group',?g)}`,
	`SELECT count(*) WHERE {(?p,'nosuchattr',?g)}`,
	`SELECT DISTINCT ?g WHERE {(?p,'group',?g)}`,
	`SELECT DISTINCT ?a WHERE {(?p,'age',?a)}`,
	`SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g ORDER BY ?n DESC LIMIT 2`,
	`SELECT ?a, count(*) AS ?n WHERE {(?p,'age',?a)} GROUP BY ?a ORDER BY ?a LIMIT 3`,
	`SELECT ?g, max(?a) AS ?hi WHERE {(?p,'group',?g) (?p,'age',?a)} GROUP BY ?g ORDER BY ?hi DESC LIMIT 1`,
}

// aggRun compiles one query and runs it with the aggregation strategy
// forced, returning the canonical rows.
func aggForcedRun(t *testing.T, tn *testNet, src string, pushdown bool) ([]string, *Exec) {
	t.Helper()
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	plan.Tail.AggPushdown = pushdown
	bs, ex := tn.engines[0].RunPlanCtx(context.Background(), plan)
	return canon(bs), ex
}

// TestAggExecEquivalence: pushdown and centralized must both equal the
// in-memory oracle for every aggregate query shape, across page sizes.
func TestAggExecEquivalence(t *testing.T) {
	corpus := aggTestCorpus()
	for _, pageSize := range []int{0, 1, 3} {
		tn := buildNetPaged(t, 16, int64(300+pageSize), nil, pageSize)
		tn.load(corpus)
		for _, src := range aggQueries {
			want := canon(referenceRun(t, src, corpus))
			ordered := strings.Contains(src, "ORDER BY") && strings.Contains(src, "LIMIT")
			for _, push := range []bool{false, true} {
				got, ex := aggForcedRun(t, tn, src, push)
				if !ex.Done() {
					t.Fatalf("page %d push=%v: %q did not complete", pageSize, push, src)
				}
				if ordered {
					// LIMIT over ties may admit different witnesses;
					// sizes must match and rows must be plausible.
					if len(got) != len(want) {
						t.Fatalf("page %d push=%v: %q sizes differ: %d vs %d\n got %v\nwant %v",
							pageSize, push, src, len(got), len(want), got, want)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("page %d push=%v: %q\n got %v\nwant %v", pageSize, push, src, got, want)
				}
			}
		}
	}
}

// TestAggPushdownMovesFewerRows: on a grouping scan the pushdown
// strategy must ship less than the centralized fallback — groups, not
// rows.
func TestAggPushdownMovesFewerRows(t *testing.T) {
	corpus := aggTestCorpus()
	src := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g`
	tn := buildNetPaged(t, 16, 500, nil, 4)
	tn.load(corpus)
	tn.net.ResetStats()
	central, _ := aggForcedRun(t, tn, src, false)
	centralBytes := tn.net.Stats().BytesSent
	tn.net.ResetStats()
	pushed, _ := aggForcedRun(t, tn, src, true)
	pushBytes := tn.net.Stats().BytesSent
	if !reflect.DeepEqual(central, pushed) {
		t.Fatalf("strategies disagree:\n%v\n%v", central, pushed)
	}
	if pushBytes >= centralBytes {
		t.Errorf("pushdown moved %dB, centralized %dB — states must beat rows", pushBytes, centralBytes)
	}
	t.Logf("bytes: pushdown %d vs centralized %d", pushBytes, centralBytes)
}

// TestAggGroupKeyRankEarlyOut: GROUP BY ?v ORDER BY ?v LIMIT k over
// the scan's value variable must terminate the scan early — fewer
// messages than the exhaustive grouped scan.
func TestAggGroupKeyRankEarlyOut(t *testing.T) {
	var corpus []triple.Triple
	for i := 0; i < 200; i++ {
		corpus = append(corpus, triple.TN(fmt.Sprintf("x%03d", i), "score", float64(i%50)))
	}
	full := `SELECT ?s, count(*) AS ?n WHERE {(?p,'score',?s)} GROUP BY ?s ORDER BY ?s`
	topk := `SELECT ?s, count(*) AS ?n WHERE {(?p,'score',?s)} GROUP BY ?s ORDER BY ?s LIMIT 3`

	tn := buildNetPaged(t, 32, 501, nil, 4)
	tn.load(corpus)

	wantFull := referenceRun(t, full, corpus)
	wantTop := canon(wantFull[:3])

	tn.net.ResetStats()
	gotFull, _ := aggForcedRun(t, tn, full, false)
	fullMsgs := tn.net.Stats().MessagesSent
	tn.net.ResetStats()
	gotTop, ex := aggForcedRun(t, tn, topk, false)
	topMsgs := tn.net.Stats().MessagesSent

	if len(gotFull) != 50 {
		t.Fatalf("full grouped scan returned %d groups", len(gotFull))
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatalf("rank-fed group top-k wrong:\n got %v\nwant %v", gotTop, wantTop)
	}
	if topMsgs >= fullMsgs {
		t.Errorf("group-key top-k sent %d msgs, full scan %d — rank frontier must stop the scan", topMsgs, fullMsgs)
	}
	if ex.Elapsed() <= 0 {
		t.Error("no elapsed time recorded")
	}
	t.Logf("group-key rank: top-3 %d msgs vs full %d msgs", topMsgs, fullMsgs)
}
