package physical_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	. "unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// namesCorpus builds `n` persons with distinct, sortable names.
func namesCorpus(n int) []triple.Triple {
	var ts []triple.Triple
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%03d", i)
		ts = append(ts,
			triple.T(id, "name", fmt.Sprintf("name%03d", i)),
			triple.TN(id, "age", float64(20+i%50)))
	}
	return ts
}

// runCounted executes src and returns (bindings, messages) with the
// network settled before and after, so counts attribute cleanly.
func runCounted(t *testing.T, tn *testNet, src string) ([]map[string]triple.Value, int) {
	t.Helper()
	tn.net.Settle()
	tn.net.ResetStats()
	got, ex := distributedRun(t, tn, 0, src)
	if !ex.Done() {
		t.Fatalf("%q did not complete", src)
	}
	tn.net.Settle()
	rows := make([]map[string]triple.Value, len(got))
	for i, b := range got {
		rows[i] = b
	}
	return rows, tn.net.Stats().MessagesSent
}

// TestLimitEarlyTerminationFewerMessages: with the range scan paged,
// a LIMIT query must stop pulling pages once enough rows exist —
// strictly fewer messages than the exhaustive scan, rows a subset of
// the full result.
func TestLimitEarlyTerminationFewerMessages(t *testing.T) {
	tn := buildNetPaged(t, 64, 21, nil, 8)
	tn.load(namesCorpus(200))
	full, fullMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)}`)
	limited, limMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 3`)
	if len(limited) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(limited))
	}
	fullSet := map[string]bool{}
	for _, b := range full {
		fullSet[b["n"].Str] = true
	}
	for _, b := range limited {
		if !fullSet[b["n"].Str] {
			t.Fatalf("limited run fabricated %q", b["n"].Str)
		}
	}
	if limMsgs >= fullMsgs {
		t.Errorf("LIMIT used %d messages, full scan %d — early-out must stop the shower", limMsgs, fullMsgs)
	}
	t.Logf("messages: limit=%d full=%d", limMsgs, fullMsgs)
}

// TestTopKStreamingOrderedAndCheaper: an ORDER BY + LIMIT over the
// scanned value variable streams in ranking order (order-preserving
// hash), so the executor must return exactly the reference top-k while
// never pulling the scan's later pages.
func TestTopKStreamingOrderedAndCheaper(t *testing.T) {
	tn := buildNetPaged(t, 64, 22, nil, 8)
	tn.load(namesCorpus(200))
	_, fullMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`)

	src := `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`
	want := canon(referenceRun(t, src, tn.triples))
	got, topMsgs := runCounted(t, tn, src)
	var names []string
	for _, b := range got {
		names = append(names, b["n"].Str)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("top-k not in order: %v", names)
		}
	}
	gotB := make([]map[string]triple.Value, len(got))
	copy(gotB, got)
	gotCanon := canonMaps(gotB)
	if !reflect.DeepEqual(gotCanon, want) {
		t.Fatalf("top-k mismatch:\n got %v\nwant %v", gotCanon, want)
	}
	if topMsgs >= fullMsgs {
		t.Errorf("top-k used %d messages, full ordered scan %d", topMsgs, fullMsgs)
	}
	t.Logf("messages: top-k=%d full=%d", topMsgs, fullMsgs)

	// DESC pages the partition from the top of the key range down.
	desc, _ := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n DESC LIMIT 4`)
	if len(desc) != 4 || desc[0]["n"].Str != "name199" || desc[3]["n"].Str != "name196" {
		t.Fatalf("DESC top-4 = %v", desc)
	}
}

func canonMaps(rows []map[string]triple.Value) []string {
	bs := make([]map[string]triple.Value, len(rows))
	copy(bs, rows)
	var out []string
	for _, b := range bs {
		out = append(out, fmt.Sprintf("n=%s;", b["n"].Lexical()))
	}
	// Mirror canon()'s sorted rendering for single-var rows.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestEarlyOutReleasesPendingOps: after an early-terminated query and
// a settled network, no pending operation may linger at any peer.
func TestEarlyOutReleasesPendingOps(t *testing.T) {
	tn := buildNetPaged(t, 32, 23, nil, 8)
	tn.load(namesCorpus(100))
	_, _ = runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 2`)
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after early-out", i, n)
		}
	}
}

// TestContextCancelStopsQuery: a canceled context terminates the query
// immediately with partial (possibly empty) results and releases every
// pending operation.
func TestContextCancelStopsQuery(t *testing.T) {
	tn := buildNet(t, 32, 24, nil)
	tn.load(namesCorpus(100))
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first response can arrive
	bs, ex := tn.engines[0].RunPlanCtx(ctx, plan)
	if !ex.Done() {
		t.Fatal("canceled query must complete")
	}
	if len(bs) != 0 {
		t.Fatalf("canceled-before-start query returned %d rows", len(bs))
	}
	tn.net.Settle()
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after cancel", i, n)
		}
	}
	// The engine must remain usable afterwards.
	src := `SELECT ?n WHERE {(?p,'name',?n)} LIMIT 1`
	got, ex2 := distributedRun(t, tn, 0, src)
	if !ex2.Done() || len(got) != 1 {
		t.Fatalf("engine unusable after cancel: done=%v rows=%d", ex2.Done(), len(got))
	}
}

// TestRankedTailFewerMessagesThanBlockingTail: a ranked top-k streams
// its pages in rank order and stops once the threshold proves no
// better row can arrive, so it must send fewer messages than the same
// ordering without LIMIT, which takes the blocking tail and reads every
// page — and its rows must be that ordering's first k.
func TestRankedTailFewerMessagesThanBlockingTail(t *testing.T) {
	tn := buildNetPaged(t, 64, 25, nil, 8)
	tn.load(namesCorpus(120))
	ranked, rankedMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 6`)
	full, fullMsgs := runCounted(t, tn, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`)
	if len(full) < 6 || !reflect.DeepEqual(ranked, full[:6]) {
		t.Fatalf("ranked top-6 %v is not the first 6 of the full ordering %v", ranked, full)
	}
	if rankedMsgs >= fullMsgs {
		t.Errorf("ranked top-6 used %d messages, blocking tail %d", rankedMsgs, fullMsgs)
	}
	t.Logf("messages: ranked=%d blocking=%d", rankedMsgs, fullMsgs)
}

// TestCursorStreamsBeforeCompletion: the pull cursor must yield the
// first rows of a paged scan while later pages are still unpulled,
// and Close must cancel the remainder.
func TestCursorStreamsBeforeCompletion(t *testing.T) {
	tn := buildNetPaged(t, 64, 26, nil, 8)
	tn.load(namesCorpus(150))
	eng := tn.engines[0]
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.Open(context.Background(), plan)
	row, ok := cur.Next()
	if !ok || row["n"].Str == "" {
		t.Fatalf("cursor yielded no first row: %v ok=%v", row, ok)
	}
	if cur.Exec().Done() {
		t.Error("query must still be running after the first row of a paged scan")
	}
	cur.Close()
	if !cur.Exec().Done() {
		t.Error("Close must terminate the query")
	}
	tn.net.Settle()
	for i, p := range tn.peers {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after cursor close", i, n)
		}
	}
}
