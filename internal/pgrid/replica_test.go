package pgrid

import (
	"fmt"
	"testing"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// inflightTarget returns the destination of the single message
// currently in flight from origin q (the probe whose loss the failover
// tests engineer).
func inflightTarget(net *simnet.Network, peers []*Peer, q *Peer) (simnet.NodeID, bool) {
	for _, p := range peers {
		if p != q && net.Load(p.ID()) > 0 {
			return p.ID(), true
		}
	}
	return 0, false
}

// loadReplicated builds an n-partition × replicas overlay with one
// "age" fact per i in [0, facts).
func loadReplicated(seed int64, n, replicas, facts int, cfg Config) (*simnet.Network, []*Peer) {
	net := newNet(seed)
	peers := build(net, seed, n, replicas, cfg)
	var ts []triple.Triple
	for i := 0; i < facts; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("rp%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)
	return net, peers
}

// TestProbeHedgesToSiblingReplica: a probe whose request is swallowed
// by the primary's death mid-flight must be hedged to the cached
// sibling replica after the deadline and still complete — with a
// bounded number of retry messages.
func TestProbeHedgesToSiblingReplica(t *testing.T) {
	net, peers := loadReplicated(61, 16, 2, 32, DefaultConfig())
	q := peers[0]
	key := triple.AVKey("age", triple.N(9))
	cold := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !cold.Complete || len(cold.Entries) != 1 {
		t.Fatalf("cold lookup: %+v", cold)
	}
	if q.routeCacheOwners(key) < 2 {
		t.Fatalf("owner set not learned: %d", q.routeCacheOwners(key))
	}
	// Issue the warm probe and kill its target while the request is in
	// flight: the request is dropped at delivery, so only the hedge
	// timer can save the operation.
	msgsBefore := net.Stats().MessagesSent
	h := q.Lookup(triple.ByAV, []keys.Key{key}, nil)
	victim, ok := inflightTarget(net, peers, q)
	if !ok {
		t.Fatal("warm probe did not go direct")
	}
	net.Kill(victim)
	res := h.Wait(0)
	if !res.Complete || len(res.Entries) != 1 {
		t.Fatalf("hedged lookup: %+v", res)
	}
	if q.Stats().ProbeRetries == 0 {
		t.Error("probe was not hedged")
	}
	if msgs := net.Stats().MessagesSent - msgsBefore; msgs > 6 {
		t.Errorf("hedged probe cost %d messages, want bounded (≤6)", msgs)
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// respTap is a simulated network that records every queryResp sent.
type respTap struct {
	*simnet.Network
	resps []queryResp
}

func (t *respTap) Send(from, to NodeID, kind string, payload any) {
	if r, ok := payload.(queryResp); ok {
		t.resps = append(t.resps, r)
	}
	t.Network.Send(from, to, kind, payload)
}

// TestProbeServingPathsAgree: the three exact-key paths — the origin's
// local batch, a direct batch to a cached owner and a cold routed
// lookup — serve one key alike, plain and aggregated: the same entries
// or group states and the same ProbeKeys, under the server span kinds
// the paths always had ("multilookup" for both batches, "lookup" for
// the routed envelope).
func TestProbeServingPathsAgree(t *testing.T) {
	net := &respTap{Network: newNet(72)}
	cfg := DefaultConfig()
	cfg.Tracing = true
	peers := build(net, 72, 8, 1, cfg)
	var ts []triple.Triple
	for i := 0; i < 5; i++ {
		ts = append(ts, triple.T(fmt.Sprintf("sp%d", i), "group", "db"))
	}
	write(net.Network, peers, ts...)
	k := triple.AVKey("group", triple.S("db"))
	var owner, q *Peer
	for _, p := range peers {
		if p.Responsible(k) {
			owner = p
		} else if q == nil {
			q = p
		}
	}
	// serve runs one traced lookup of k and returns the response its
	// server sent and the kind of the server's span.
	serve := func(from *Peer, spec *agg.Spec) (queryResp, string) {
		t.Helper()
		opts := []OpOption{WithTrace(trace.Ctx{TraceID: 1})}
		if spec != nil {
			opts = append(opts, WithAgg(spec, func([]agg.State) {}))
		}
		net.resps = nil
		h := from.Lookup(triple.ByAV, []keys.Key{k}, nil, opts...)
		if res := h.Wait(0); !res.Complete {
			t.Fatalf("lookup incomplete: %+v", res)
		}
		spans := from.TakeTrace(h.QID())
		if len(net.resps) != 1 || len(spans) != 2 || spans[0].Kind != "lookup" {
			t.Fatalf("want one response and a lookup root with one server span; got %d responses, spans %+v",
				len(net.resps), spans)
		}
		return net.resps[0], spans[1].Kind
	}
	for _, spec := range []*agg.Spec{nil, countSpec()} {
		local, localKind := serve(owner, spec)
		q.mu.Lock()
		q.cache.clearLocked()
		q.mu.Unlock()
		routed, routedKind := serve(q, spec)
		direct, directKind := serve(q, spec)
		if kinds := []string{localKind, routedKind, directKind}; kinds[0] != "multilookup" ||
			kinds[1] != "lookup" || kinds[2] != "multilookup" {
			t.Errorf("agg=%v: server span kinds (local, routed, direct) = %v", spec != nil, kinds)
		}
		for name, r := range map[string]queryResp{"routed": routed, "direct": direct} {
			if fmt.Sprint(entryKeys(r.Entries)) != fmt.Sprint(entryKeys(local.Entries)) ||
				string(r.AggData) != string(local.AggData) || r.Count != local.Count ||
				fmt.Sprint(r.ProbeKeys) != fmt.Sprint(local.ProbeKeys) {
				t.Errorf("agg=%v: %s path served %+v, local batch %+v", spec != nil, name, r, local)
			}
		}
		if local.Count == 0 || fmt.Sprint(local.ProbeKeys) != fmt.Sprint([]keys.Key{k}) {
			t.Errorf("agg=%v: local batch answered nothing: %+v", spec != nil, local)
		}
	}
}

// TestMultiLookupFailoverExactCompletion: killing a batched probe's
// target mid-flight must neither drop nor double-count keys — the
// operation completes with exactly one response per distinct key even
// though the hedge resend races late originals.
func TestMultiLookupFailoverExactCompletion(t *testing.T) {
	net, peers := loadReplicated(62, 16, 2, 48, DefaultConfig())
	q := peers[0]
	var ks []keys.Key
	for i := 0; i < 12; i++ {
		ks = append(ks, triple.AVKey("age", triple.N(float64(i))))
	}
	// Warm the owner sets for every key.
	for _, k := range ks {
		if res := q.Lookup(triple.ByAV, []keys.Key{k}, nil).Wait(opWait); !res.Complete || len(res.Entries) != 1 {
			t.Fatalf("warmup %s: %+v", k, res)
		}
	}
	// Kill one cached primary mid-flight.
	q.mu.RLock()
	var victim simnet.NodeID
	for _, s := range q.cache.entries {
		if s.path.Len() > 0 && ks[0].HasPrefix(s.path) {
			victim = s.owners[0].ID
		}
	}
	q.mu.RUnlock()
	h := q.Lookup(triple.ByAV, ks, nil)
	net.Kill(victim)
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("multi-lookup under churn did not complete: %+v", res)
	}
	if res.Responses != len(ks) {
		t.Errorf("responses = %d, want exactly %d (per-key tracking)", res.Responses, len(ks))
	}
	got := map[string]int{}
	for _, e := range res.Entries {
		got[e.Triple.OID]++
	}
	if len(got) != len(ks) {
		t.Errorf("distinct facts = %d, want %d", len(got), len(ks))
	}
	for oid, n := range got {
		if n != 1 {
			t.Errorf("fact %s delivered %d times, want once", oid, n)
		}
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestScanCoverageRetryUnderChurn: a range scan whose branch envelope
// dies with a first-hop peer must re-shower the missing partitions and
// still return every fact exactly once (the covered-partition dedup).
func TestScanCoverageRetryUnderChurn(t *testing.T) {
	net, peers := loadReplicated(63, 16, 2, 64, DefaultConfig())
	q := peers[0]
	r := triple.AVPrefixRange("age")
	// Start the scan, then kill the in-flight branch targets before
	// delivery (at most one replica per partition; never the origin).
	h := q.RangeQuery(triple.ByAV, r, nil)
	byPath := map[string]bool{}
	killed := 0
	for _, p := range peers {
		if p == q || killed >= 3 {
			continue
		}
		if net.Load(p.ID()) > 0 && !byPath[p.Path().String()] {
			byPath[p.Path().String()] = true
			net.Kill(p.ID())
			killed++
		}
	}
	if killed == 0 {
		t.Skip("no branch targets in flight at kill time")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan under churn did not complete: %+v", res)
	}
	if q.Stats().ScanRetries == 0 {
		t.Error("scan was never re-showered")
	}
	got := map[string]bool{}
	for _, e := range res.Entries {
		got[e.Triple.OID] = true
	}
	if len(got) != 64 {
		t.Errorf("scan returned %d distinct facts, want 64", len(got))
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestScanStreamClaimDropsDuplicateStream: the first responder for a
// partition owns its stream; a concurrent stream of the same partition
// from a sibling replica (a retry racing a slow-but-alive original)
// must be dropped whole — pages included — so rows never duplicate.
func TestScanStreamClaimDropsDuplicateStream(t *testing.T) {
	net := newNet(69)
	peers := build(net, 69, 4, 1, DefaultConfig())
	q := peers[0]
	r := triple.AVPrefixRange("age")
	op := &pendingOp{needShares: TotalShare, scan: &scanState{kind: uint8(triple.ByAV), r: r}}
	qid := q.newOp(op, trace.OpRange, nil, opSettings{})
	path := keys.FromBits("01")
	tr := triple.TN("cl01", "age", 1)
	e := store.Entry{Kind: triple.ByAV, Key: triple.IndexKey(tr, triple.ByAV), Triple: tr, Version: 1}

	// Claimant streams a partial page, then a duplicate stream from a
	// sibling replica delivers the same rows — and must be ignored.
	q.handleResponse(queryResp{QID: qid, Entries: []store.Entry{e}, Count: 1, From: 5, Path: path}, 0)
	q.handleResponse(queryResp{QID: qid, Entries: []store.Entry{e}, Count: 1, From: 6, Path: path}, 0)
	h := &Handle{peer: q, op: op, qid: qid}
	if res := h.Result(); res.Count != 1 || len(res.Entries) != 1 {
		t.Fatalf("duplicate stream leaked rows: %+v", res)
	}
	// The duplicate's final must be ignored too; the claimant's final
	// completes the branch.
	q.handleResponse(queryResp{QID: qid, Count: 0, Share: TotalShare, Final: true, From: 6, Path: path}, 0)
	if h.Done() {
		t.Fatal("duplicate stream's final completed the operation")
	}
	q.handleResponse(queryResp{QID: qid, Count: 0, Share: TotalShare, Final: true, From: 5, Path: path}, 0)
	if !h.Done() {
		t.Fatal("claimant's final did not complete the operation")
	}
	if res := h.Result(); res.Count != 1 || len(res.Entries) != 1 {
		t.Fatalf("final accounting off: %+v", res)
	}
}

// TestScanDropsPagesAfterFinal: once a partition's stream delivered its
// final page, a later page of the same stream (a forked pull whose
// smaller window left it partial) must be dropped, while other
// partitions keep the operation open.
func TestScanDropsPagesAfterFinal(t *testing.T) {
	net := newNet(71)
	peers := build(net, 71, 4, 1, DefaultConfig())
	q, server := peers[0], peers[1]
	op := &pendingOp{needShares: TotalShare, scan: &scanState{kind: uint8(triple.ByAV), r: triple.AVPrefixRange("age")}}
	qid := q.newOp(op, trace.OpRange, nil, opSettings{})
	tr := triple.TN("fin01", "age", 1)
	e := store.Entry{Kind: triple.ByAV, Key: triple.IndexKey(tr, triple.ByAV), Triple: tr, Version: 1}
	path := server.Path()
	q.handleResponse(queryResp{QID: qid, Entries: []store.Entry{e}, Count: 1, Share: TotalShare / 2,
		Final: true, From: server.ID(), Path: path}, 0)
	q.handleResponse(queryResp{QID: qid, Entries: []store.Entry{e}, Count: 1,
		Cont: &pageCont{Kind: uint8(triple.ByAV), R: keys.Range{Lo: e.Key}, SkipAtLo: 1, PageSize: 1},
		From: server.ID(), Path: path}, 0)
	h := &Handle{peer: q, op: op, qid: qid}
	if res := h.Result(); res.Count != 1 || len(res.Entries) != 1 {
		t.Fatalf("a page after the partition's final leaked rows: %+v", res)
	}
	if h.Done() {
		t.Fatal("half the share completed the operation")
	}
}

// TestPagedScanResumesAtCursorAfterMidPaginationDeath: a paged scan
// whose server dies AFTER delivering pages must resume the stream at
// its stored cursor on a sibling replica — every fact arrives exactly
// once, nothing is replayed from the beginning of the partition.
func TestPagedScanResumesAtCursorAfterMidPaginationDeath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net, peers := loadReplicated(70, 2, 2, 40, cfg)
	// The whole "age" AV region lands in one partition; originate the
	// scan at a peer of the OTHER partition so the stream is remote.
	probe := triple.AVKey("age", triple.N(0))
	var q *Peer
	for _, p := range peers {
		if !p.Responsible(probe) {
			q = p
			break
		}
	}
	if q == nil {
		t.Fatal("no peer outside the age region")
	}
	r := triple.AVPrefixRange("age")

	var streamed []store.Entry
	h := q.RangeQuery(triple.ByAV, r, nil, WithPages(func(_ keys.Key, es []store.Entry) {
		streamed = append(streamed, es...)
	}))
	// Step until at least one REMOTE page has streamed in (the origin
	// serves its own partition first via loopback), then kill every
	// remote peer that served pages: the pull for their next page is
	// already in flight and dies with them.
	remotePageIn := func() bool {
		for _, e := range streamed {
			if !e.Key.HasPrefix(q.Path()) {
				return true
			}
		}
		return false
	}
	for !remotePageIn() && net.Step() {
	}
	killedServer := false
	for _, p := range peers {
		if p != q && p.Stats().PagesServed > 0 {
			net.Kill(p.ID())
			killedServer = true
		}
	}
	if !killedServer {
		t.Skip("only the origin served pages; no remote stream to kill")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan did not complete after mid-pagination death: %+v", res)
	}
	if st := q.Stats(); st.ScanRetries == 0 && st.PagePullHedges == 0 {
		// Recovery normally happens through the pull-level hedge (one
		// hedge interval); the scan-level re-shower remains the slower
		// backstop. Either path counts as a resumed stream.
		t.Error("stream was not resumed through any failover path")
	}
	got := map[string]int{}
	for _, e := range streamed {
		got[e.Triple.OID]++
	}
	if len(got) != 40 {
		t.Errorf("streamed %d distinct facts, want 40", len(got))
	}
	for oid, n := range got {
		if n != 1 {
			t.Errorf("fact %s streamed %d times, want once (cursor resume must not replay pages)", oid, n)
		}
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestForwardHopUsesOwnCache: an intermediate hop with a warm cache
// must short-cut a probe it forwards — the origin's cold probe reaches
// the responsible peer in at most 2 hops (origin → warm hop → owner)
// instead of the full prefix-routing descent.
func TestForwardHopUsesOwnCache(t *testing.T) {
	net, peers := loadReplicated(64, 32, 1, 64, DefaultConfig())
	q := peers[0]
	key := triple.AVKey("age", triple.N(33))
	var owner *Peer
	for _, p := range peers {
		if p.Responsible(key) {
			owner = p
		}
	}
	if owner == nil || owner == q {
		t.Fatal("topology gave no distinct owner")
	}
	// Pick a neighbour the origin routes through for this key, warm its
	// cache, and pin the origin's first hop to it.
	level := key.CommonPrefixLen(q.Path())
	hopRef, ok := q.pickRef(level)
	if !ok {
		t.Fatal("origin has no ref at the divergence level")
	}
	hop := net.Handler(hopRef.ID).(*Peer)
	if hop.Responsible(key) {
		t.Skip("first hop is already the owner; no intermediate leg to test")
	}
	if res := hop.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait); !res.Complete {
		t.Fatalf("warming hop cache: %+v", res)
	}
	q.mu.Lock()
	q.refs[level] = []Ref{hopRef}
	q.mu.Unlock()

	fwdBefore := hop.Stats().RouteCacheFwdHits
	res := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !res.Complete || len(res.Entries) != 1 {
		t.Fatalf("routed lookup: %+v", res)
	}
	if res.Hops > 2 {
		t.Errorf("probe took %d hops; a warm intermediate cache must cap it at 2", res.Hops)
	}
	if hop.Stats().RouteCacheFwdHits <= fwdBefore {
		t.Error("intermediate hop did not use its own cache")
	}
}

// TestDigestAntiEntropyConverges: diverged replicas reconcile through
// digest rounds pulling only the differing buckets, and an already
// converged pair ships summaries but no entries at all.
func TestDigestAntiEntropyConverges(t *testing.T) {
	net := newNet(65)
	cfg := DefaultConfig()
	cfg.PageSize = 4
	peers := build(net, 65, 2, 2, cfg)
	var a, b *Peer
	for _, p := range peers {
		if p.Path().Bit(0) == 0 {
			if a == nil {
				a = p
			} else {
				b = p
			}
		}
	}
	// Diverge: apply 10 facts only to a (as if b was offline).
	for i := 0; i < 10; i++ {
		for _, kind := range triple.AllIndexKinds {
			tr := triple.TN(fmt.Sprintf("dg%02d", i), "age", float64(i))
			e := store.Entry{Kind: kind, Key: triple.IndexKey(tr, kind), Triple: tr, Version: 2}
			if e.Key.HasPrefix(a.Path()) {
				a.store.Apply(e)
			}
		}
	}
	if a.store.Len() == b.store.Len() {
		t.Fatal("stores did not diverge; test is vacuous")
	}
	net.ResetStats()
	a.runAntiEntropy()
	net.Run()
	if a.store.Len() != b.store.Len() {
		t.Fatalf("replicas did not converge: a=%d b=%d", a.store.Len(), b.store.Len())
	}
	entriesShipped := net.Stats().PerKind[KindAntiEnt]
	if entriesShipped == 0 {
		t.Error("diverged buckets were never pulled")
	}

	// A second round on the now converged pair must ship digests only.
	net.ResetStats()
	a.runAntiEntropy()
	net.Run()
	st := net.Stats()
	if st.PerKind[KindAntiEnt] != 0 {
		t.Errorf("converged replicas still shipped %d entry messages", st.PerKind[KindAntiEnt])
	}
	if st.PerKind[KindDigest] == 0 {
		t.Error("no digest exchanged")
	}
}

// TestGossipPushDedupesAndSkipsSender: a replica push must collapse
// superseded duplicates into one message per replica and never push
// back to the peer the entries came from, counting every suppression.
func TestGossipPushDedupesAndSkipsSender(t *testing.T) {
	net := newNet(66)
	peers := build(net, 66, 2, 3, DefaultConfig())
	var group []*Peer
	for _, p := range peers {
		if p.Path().Bit(0) == 0 {
			group = append(group, p)
		}
	}
	p := group[0]
	sender := group[1].ID()
	tr := triple.TN("gd01", "age", 1)
	kind := triple.ByAV
	mk := func(v uint64) store.Entry {
		return store.Entry{Kind: kind, Key: triple.IndexKey(tr, kind), Triple: tr, Version: v}
	}
	net.ResetStats()
	supBefore := p.Stats().GossipSuppressed
	p.pushToReplicas([]store.Entry{mk(1), mk(2), mk(3)}, sender)
	net.Run()
	st := net.Stats()
	// Two live sibling replicas, one of them the sender: exactly one
	// gossip message goes out, carrying the single surviving entry.
	if st.PerKind[KindGossip] != 1 {
		t.Errorf("gossip messages = %d, want 1 (dedupe + sender skip)", st.PerKind[KindGossip])
	}
	if p.Stats().GossipSuppressed <= supBefore {
		t.Error("suppressed sends were not counted")
	}
}

// TestDescPagedScanStreamsInOrder: a descending paged range query must
// deliver pages whose keys never increase across the stream of one
// partition, and the full result must equal the ascending scan's.
func TestDescPagedScanStreamsInOrder(t *testing.T) {
	net := newNet(67)
	cfg := DefaultConfig()
	cfg.PageSize = 3
	peers := build(net, 67, 4, 1, cfg)
	var ts []triple.Triple
	for i := 0; i < 30; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("ds%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)
	q := peers[0]
	r := triple.AVPrefixRange("age")

	asc := q.RangeQuery(triple.ByAV, r, nil).Wait(opWait)
	if !asc.Complete || asc.Count != 30 {
		t.Fatalf("ascending scan: %+v", asc)
	}

	perSource := map[string][]keys.Key{}
	var pages [][]store.Entry
	h := q.RangeQuery(triple.ByAV, r, nil, WithDesc(true), WithPages(func(_ keys.Key, es []store.Entry) {
		pages = append(pages, es)
		for _, e := range es {
			src := e.Key.Prefix(2).String()
			perSource[src] = append(perSource[src], e.Key)
		}
	}))
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("desc scan incomplete: %+v", res)
	}
	total := 0
	for _, pg := range pages {
		total += len(pg)
	}
	if total != 30 {
		t.Fatalf("desc scan streamed %d entries, want 30", total)
	}
	for src, seq := range perSource {
		for i := 1; i < len(seq); i++ {
			if seq[i].Compare(seq[i-1]) > 0 {
				t.Fatalf("partition %s streamed keys out of descending order", src)
			}
		}
	}
	if len(pages) < 30/3 {
		t.Errorf("desc scan arrived in %d pages; page size 3 over 30 entries should stream ≥10", len(pages))
	}
}
