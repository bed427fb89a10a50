package pgrid

import (
	"fmt"
	"testing"
	"time"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// countSpec is the canonical GROUP BY ?g / count(*) spec over pattern
// (?p,'group',?g).
func countSpec() *agg.Spec {
	return &agg.Spec{
		GroupBy: []string{"g"},
		Items:   []agg.Item{{Func: agg.Count, Out: "n"}},
		Pat: [3]agg.Term{
			agg.VarTerm("p"),
			agg.LitTerm(triple.S("group")),
			agg.VarTerm("g"),
		},
	}
}

func buildAggOverlay(t *testing.T, n, replicas, pageSize int, seed int64) (*simnet.Network, []*Peer) {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: seed})
	cfg := DefaultConfig()
	cfg.PageSize = pageSize
	peers := build(net, seed, n, replicas, cfg)
	return net, peers
}

func loadGroups(net *simnet.Network, peers []*Peer, persons int) map[string]float64 {
	groups := []string{"db", "os", "net"}
	want := map[string]float64{}
	var ts []triple.Triple
	for i := 0; i < persons; i++ {
		g := groups[i%len(groups)]
		want[g]++
		ts = append(ts, triple.T(fmt.Sprintf("p%03d", i), "group", g))
	}
	write(net, peers, ts...)
	return want
}

// TestRangeQueryAggPaged: an aggregated shower must return exactly one
// merged state per group, with the per-partition answers paged by
// group count.
func TestRangeQueryAggPaged(t *testing.T) {
	for _, pageSize := range []int{0, 1, 2} {
		net, peers := buildAggOverlay(t, 16, 1, pageSize, 41)
		want := loadGroups(net, peers, 60)
		spec := countSpec()
		tbl := agg.NewTable(spec)
		h := peers[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("group"), nil,
			WithAgg(spec, func(states []agg.State) { tbl.MergeStates(states) }))
		res := h.Wait(0)
		if !res.Complete {
			t.Fatalf("pageSize %d: aggregated scan incomplete", pageSize)
		}
		rows := tbl.Rows()
		if len(rows) != len(want) {
			t.Fatalf("pageSize %d: %d groups, want %d", pageSize, len(rows), len(want))
		}
		for _, r := range rows {
			if r["n"].Num != want[r["g"].Str] {
				t.Fatalf("pageSize %d: group %q count %v, want %v",
					pageSize, r["g"].Str, r["n"], want[r["g"].Str])
			}
		}
	}
}

// TestRangeQueryAggChurn: killing a serving replica mid-aggregation
// must still produce exact group counts — the coverage re-shower and
// claim dedup keep each partition's contribution exactly-once.
func TestRangeQueryAggChurn(t *testing.T) {
	net, peers := buildAggOverlay(t, 32, 2, 2, 43)
	want := loadGroups(net, peers, 90)
	// Warm the origin's routing knowledge, then aggregate with a victim
	// killed while branch envelopes are in flight.
	spec := countSpec()
	tbl := agg.NewTable(spec)
	h := peers[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("group"), nil,
		WithAgg(spec, func(states []agg.State) { tbl.MergeStates(states) }))
	// Kill one loaded non-origin node before anything is delivered.
	killed := false
	for _, p := range peers[1:] {
		if net.Load(p.ID()) > 0 {
			net.Kill(p.ID())
			killed = true
			break
		}
	}
	if !killed {
		net.Kill(peers[1].ID())
	}
	h.Wait(0)
	rows := tbl.Rows()
	if len(rows) != len(want) {
		t.Fatalf("churned aggregation lost groups: %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r["n"].Num != want[r["g"].Str] {
			t.Fatalf("churned group %q count %v, want %v", r["g"].Str, r["n"], want[r["g"].Str])
		}
	}
}

// TestAggPullHedgeForkFoldsOnce: the original pull of a forked
// aggregated stream advertises the default window and the hedge the
// floor one, so the server answers both from one cursor with pages of
// different group counts. The later page repeats groups the first
// folded; the origin must drop it, or those groups count twice.
func TestAggPullHedgeForkFoldsOnce(t *testing.T) {
	net, peers := buildAggOverlay(t, 4, 1, 64, 59)
	want := map[string]float64{}
	var ts []triple.Triple
	for i := 0; i < 400; i++ {
		g := fmt.Sprintf("group-%03d", i%200)
		want[g]++
		ts = append(ts, triple.T(fmt.Sprintf("p%03d", i), "group", g))
	}
	write(net, peers, ts...)
	r := triple.AVPrefixRange("group")
	origin := slowServersFor(t, net, peers, r)
	spec := countSpec()
	tbl := agg.NewTable(spec)
	pages := 0
	h := origin.RangeQuery(triple.ByAV, r, nil, WithAgg(spec, func(states []agg.State) {
		tbl.MergeStates(states)
		pages++
	}))
	// The first page's pull left under the default window; the hedge
	// pull advertises the floor one.
	for pages == 0 && net.Step() {
	}
	origin.cfg.FlowWindowBytes = 1
	if res := h.Wait(0); !res.Complete {
		t.Fatalf("forked aggregation incomplete: %+v", res)
	}
	if origin.Stats().PagePullHedges == 0 {
		t.Fatal("no pull was hedged; the stream never forked")
	}
	rows := tbl.Rows()
	if len(rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		if g := row["g"].Str; row["n"].Num != want[g] {
			t.Errorf("group %s counted %v, want %v", g, row["n"].Num, want[g])
		}
	}
}

// TestLookupAgg: a single-key aggregated probe returns the key's
// entries folded into group states instead of rows.
func TestLookupAgg(t *testing.T) {
	net, peers := buildAggOverlay(t, 16, 1, 0, 47)
	want := loadGroups(net, peers, 30)
	spec := countSpec()
	tbl := agg.NewTable(spec)
	h := peers[0].Lookup(triple.ByAV, []keys.Key{triple.AVKey("group", triple.S("db"))}, nil,
		WithAgg(spec, func(states []agg.State) { tbl.MergeStates(states) }))
	res := h.Wait(0)
	if !res.Complete {
		t.Fatal("aggregated lookup incomplete")
	}
	rows := tbl.Rows()
	if len(rows) != 1 || rows[0]["g"].Str != "db" || rows[0]["n"].Num != want["db"] {
		t.Fatalf("aggregated lookup rows: %v, want db=%v", rows, want["db"])
	}
	if res.Entries != nil {
		t.Fatalf("aggregated lookup shipped %d raw entries", len(res.Entries))
	}
}

// TestAggProbePartialOverlapDropsWhole: an aggregated probe response
// that answers a mix of still-wanted and already-answered keys must be
// dropped whole (states cannot be split per key), with its wanted keys
// put back for the path that answered the others.
func TestAggProbePartialOverlapDropsWhole(t *testing.T) {
	net, peers := buildAggOverlay(t, 4, 1, 0, 53)
	_ = net
	p := peers[0]
	spec := countSpec()
	k1 := triple.AVKey("group", triple.S("db"))
	k2 := triple.AVKey("group", triple.S("os"))
	tbl := agg.NewTable(spec)
	op := &pendingOp{needResponses: 2, probeWant: map[string]bool{k1.String(): true, k2.String(): true}}
	qid := p.newOp(op, trace.OpMultiLookup, nil,
		resolveOpts([]OpOption{WithAgg(spec, func(states []agg.State) { tbl.MergeStates(states) })}))

	one := agg.NewTable(spec)
	one.AddTriple(triple.T("p1", "group", "db"))
	both := agg.NewTable(spec)
	both.AddTriple(triple.T("p1", "group", "db"))
	both.AddTriple(triple.T("p2", "group", "os"))

	// k1 answered alone first; then a late batch re-answers k1 along
	// with k2 — its states fold k1's rows again, so it must be dropped.
	p.handleResponse(queryResp{QID: qid, ProbeKeys: []keys.Key{k1},
		AggData: agg.EncodeStates(one.States()), AggGroups: 1, From: 99, Path: keys.FromBits("0")}, 0)
	p.handleResponse(queryResp{QID: qid, ProbeKeys: []keys.Key{k1, k2},
		AggData: agg.EncodeStates(both.States()), AggGroups: 2, From: 98, Path: keys.FromBits("0")}, 0)
	h := &Handle{peer: p, op: op, qid: qid}
	if h.Done() {
		t.Fatal("partially overlapping batch completed the operation")
	}
	// The clean k2 answer completes it.
	two := agg.NewTable(spec)
	two.AddTriple(triple.T("p2", "group", "os"))
	p.handleResponse(queryResp{QID: qid, ProbeKeys: []keys.Key{k2},
		AggData: agg.EncodeStates(two.States()), AggGroups: 1, From: 97, Path: keys.FromBits("0")}, 0)
	if !h.Done() {
		t.Fatal("clean remainder did not complete the operation")
	}
	for _, r := range tbl.Rows() {
		if r["n"].Num != 1 {
			t.Fatalf("group %q counted %v times — overlapping batch double-counted", r["g"].Str, r["n"])
		}
	}
}
