package core

// End-to-end tracing tests: the assembled QueryTrace must account for
// every overlay message of a traced query — reconciling EXACTLY with
// the simulator's sent counters on a quiet deterministic run — and
// must stay structurally complete (flagged, never orphaned) when the
// query survives peer kills through hedges and re-showers.

import (
	"context"
	"testing"

	"unistore/internal/trace"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

const rankedTopK = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`

// tracedTopKCluster is the deterministic 64-peer ranked top-k
// scenario with tracing on: single replica, no loss, nothing but the
// query moves once settled.
func tracedTopKCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(Config{
		Peers: 64, Seed: 12, Tracing: true,
	})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 300})
	c.BulkInsert(ds.Triples...)
	c.net.Settle()
	return c
}

// TestQueryTraceReconcilesExactly pins the accounting identity: every
// overlay message of the traced ranked top-k is charged to exactly one
// span field, so the trace's totals equal the simulator's message and
// byte deltas — not approximately, exactly.
func TestQueryTraceReconcilesExactly(t *testing.T) {
	c := tracedTopKCluster(t)
	q, err := vql.ParseQuery(rankedTopK)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	before := c.net.Stats()
	bs, ex := c.engines[0].RunPlanCtx(context.Background(), plan)
	// Drain stragglers (late pages, cancels): their riders fold
	// into a repeated Trace() call, their cost into the stats delta.
	c.net.Settle()
	after := c.net.Stats()
	qt := ex.Trace()

	if len(bs) != 5 {
		t.Fatalf("top-5 returned %d rows", len(bs))
	}
	if qt == nil || len(qt.Spans) == 0 {
		t.Fatal("traced query produced no trace")
	}
	if orphans := qt.Orphans(); len(orphans) != 0 {
		t.Fatalf("trace has %d orphaned spans: %+v", len(orphans), orphans)
	}
	msgs, bytes := qt.Totals()
	wantMsgs := after.MessagesSent - before.MessagesSent
	wantBytes := after.BytesSent - before.BytesSent
	if msgs != wantMsgs || bytes != wantBytes {
		t.Errorf("trace totals %d msgs / %d bytes, simnet sent %d msgs / %d bytes\n%s",
			msgs, bytes, wantMsgs, wantBytes, qt.String())
	}
	// The physical pipeline contributes its own layer: stage spans
	// with row counts and serve timestamps (time-to-first-row).
	stages := 0
	for _, s := range qt.Spans {
		if s.Kind == "stage" {
			stages++
			if s.Stage == "" {
				t.Errorf("stage span without operator label: %+v", s)
			}
			if s.Rows == 0 && s.RowsIn == 0 {
				t.Errorf("stage span carries no row accounting: %+v", s)
			}
			if s.Srv < s.Enq {
				t.Errorf("stage first-row before start: %+v", s)
			}
		}
	}
	if stages == 0 {
		t.Error("no pipeline stage spans in the trace")
	}
}

// TestResultTraceAndPerQueryRegistryDelta covers the public surface:
// QueryFrom returns the assembled trace, and a registry snapshot delta
// around the query attributes its traffic.
func TestResultTraceAndPerQueryRegistryDelta(t *testing.T) {
	c := tracedTopKCluster(t)
	before := c.Registry().Snapshot()
	res, err := c.QueryFrom(0, rankedTopK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace is nil on a tracing cluster")
	}
	if len(res.Trace.Orphans()) != 0 {
		t.Errorf("orphaned spans in result trace")
	}
	msgs, _ := res.Trace.Totals()
	if msgs == 0 {
		t.Error("trace accounted zero messages")
	}
	d := c.Registry().Snapshot().Sub(before)
	if got := d.Counters["net.messages_sent"]; int(got) < res.Messages {
		t.Errorf("registry delta %d messages < result's %d", got, res.Messages)
	}
	if d.Counters["pgrid.range_served"] == 0 {
		t.Error("per-query registry delta shows no served range branches")
	}
}

// TestUntracedQueriesCarryNoTrace pins the default: without
// Config.Tracing, results have no trace and the overlay sends no
// trace context (the overhead guard in msgbudget_test.go asserts the
// byte identity; this pins the API surface).
func TestUntracedQueriesCarryNoTrace(t *testing.T) {
	c := NewCluster(Config{Peers: 16, Seed: 3})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 50})
	c.BulkInsert(ds.Triples...)
	res, err := c.QueryFrom(0, rankedTopK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced cluster returned a trace: %+v", res.Trace)
	}
}

// TestTraceCompleteUnderPeerKills: with one replica of most partitions
// dead, the traced ranked top-k must still assemble a complete tree —
// hedge/retry spans flagged as such, no span orphaned — while the
// result stays exact.
func TestTraceCompleteUnderPeerKills(t *testing.T) {
	build := func(tracing bool) *Cluster {
		c := NewCluster(Config{
			Peers: 32, Replicas: 2, Seed: 21, PageSize: 8,
			Tracing: tracing,
		})
		ds := workload.Generate(workload.Options{Seed: 22, Persons: 300})
		c.BulkInsert(ds.Triples...)
		if _, err := c.QueryFrom(0, rankedTopK); err != nil {
			t.Fatal(err)
		}
		c.net.Settle()
		return c
	}
	ref, err := build(false).QueryFrom(0, rankedTopK)
	if err != nil {
		t.Fatal(err)
	}

	c := build(true)
	q, err := vql.ParseQuery(rankedTopK)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// Start the plan and kill the peers its first-hop branch envelopes
	// are in flight toward (visible as network backlog) — their branch
	// shares are genuinely lost, forcing hedged pulls and re-showers.
	// At most one replica per partition dies and never the origin.
	ex := c.engines[0].Open(context.Background(), plan).Exec()
	byPath := map[string]bool{c.peers[0].Path().String(): true}
	killed := 0
	kill := func(i int) {
		p := c.peers[i]
		if !c.net.Alive(p.ID()) {
			return
		}
		if path := p.Path().String(); !byPath[path] {
			byPath[path] = true
			c.Kill(i)
			killed++
		}
	}
	want := len(c.peers) / 10
	for i := 1; i < len(c.peers) && killed < want; i++ {
		if c.net.Load(c.peers[i].ID()) > 0 {
			kill(i)
		}
	}
	for i := 1; i < len(c.peers) && killed < want; i++ {
		kill(i)
	}
	if killed == 0 {
		t.Fatal("killed nobody")
	}
	ex.Wait()
	c.net.Settle()
	if len(ex.Result()) != len(ref.Bindings) {
		t.Fatalf("churned query returned %d rows, want %d", len(ex.Result()), len(ref.Bindings))
	}
	qt := ex.Trace()
	if qt == nil {
		t.Fatal("no trace under churn")
	}
	if orphans := qt.Orphans(); len(orphans) != 0 {
		t.Fatalf("churned trace has %d orphans: %+v\n%s", len(orphans), orphans, qt.String())
	}
	flagged := 0
	for _, s := range qt.Spans {
		if s.Flags&(trace.FlagHedge|trace.FlagRetry) != 0 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Errorf("failover fired but no span is flagged hedge/retry:\n%s", qt.String())
	}
	// Dedup must hold even with hedged duplicates in flight.
	seen := map[uint64]bool{}
	for _, s := range qt.Spans {
		if s.ID != 0 && seen[s.ID] {
			t.Fatalf("duplicate span id %d in assembled trace", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestStreamedQueryReachesTraceLog: a query read through QueryStream
// (drained, then closed) ends in the same finish step as Query — one
// trace-log entry, the same trace totals and the same message count as
// the identical query through Query on an identical cluster.
func TestStreamedQueryReachesTraceLog(t *testing.T) {
	const src = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 4`
	build := func() *Cluster {
		c := NewCluster(Config{Peers: 16, Seed: 3, Tracing: true})
		c.BulkInsert(workload.Generate(workload.Options{Seed: 13, Persons: 60}).Triples...)
		c.net.Settle()
		return c
	}

	qc := build()
	want, err := qc.Query(src, From(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(qc.TraceLog().Recent()); n != 1 {
		t.Fatalf("Query added %d trace-log entries, want 1", n)
	}

	sc := build()
	st, err := sc.QueryStream(context.Background(), src, From(0))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		rows++
	}
	st.Close()
	got := st.Result()
	if n := len(sc.TraceLog().Recent()); n != 1 {
		t.Fatalf("QueryStream added %d trace-log entries, want 1", n)
	}
	if got == nil || got.Trace == nil {
		t.Fatal("drained stream has no traced Result")
	}
	if rows != 4 || len(got.Bindings) != 4 {
		t.Errorf("stream yielded %d rows, Result holds %d; want 4", rows, len(got.Bindings))
	}
	wm, wb := want.Trace.Totals()
	gm, gb := got.Trace.Totals()
	if gm != wm || gb != wb {
		t.Errorf("stream trace totals %d msgs / %d bytes, Query's %d / %d", gm, gb, wm, wb)
	}
	if got.Messages != want.Messages || got.Messages == 0 {
		t.Errorf("stream Result.Messages = %d, Query's %d", got.Messages, want.Messages)
	}
	if got.TimeToFirst > got.Elapsed || got.Plan != want.Plan {
		t.Errorf("stream Result time-to-first %v / elapsed %v / plan %q; Query's plan %q",
			got.TimeToFirst, got.Elapsed, got.Plan, want.Plan)
	}
}
