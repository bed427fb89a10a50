package pgrid

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// The live-membership regression suite: joins that trigger splits
// mid-scan, merges during paged pulls, and routing-cache self-repair.
// Everything runs on the deterministic simnet — same seeds, same
// interleavings, every run.

// scanAge opens a paged scan over the age region from a peer outside
// it and returns the origin, the handle and the collected stream.
func scanAge(t *testing.T, peers []*Peer) (*Peer, *Handle, *[]store.Entry) {
	t.Helper()
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
	streamed := &[]store.Entry{}
	h := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil, WithPages(func(_ keys.Key, es []store.Entry) {
		*streamed = append(*streamed, es...)
	}))
	return q, h, streamed
}

// checkExact asserts the stream holds each of the facts exactly once.
func checkExact(t *testing.T, streamed []store.Entry, facts int) {
	t.Helper()
	seen := map[string]int{}
	for _, e := range streamed {
		seen[e.Triple.OID]++
	}
	if len(seen) != facts {
		t.Errorf("streamed %d distinct facts, want %d", len(seen), facts)
	}
	for oid, n := range seen {
		if n != 1 {
			t.Errorf("fact %s streamed %d times, want once", oid, n)
		}
	}
}

// TestJoinTriggersSplitMidScanExact: a fresh peer joins a replica
// group whose pages are mid-flight toward a scan origin, the enlarged
// group then splits live — paths deepen, stores re-partition, the
// joiner takes one half — and the scan must still deliver every fact
// exactly once.
func TestJoinTriggersSplitMidScanExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	const facts = 120
	net, peers := loadReplicated(91, 8, 2, facts, cfg)
	q, h, streamed := scanAge(t, peers)
	remotePageIn := func() bool {
		for _, e := range *streamed {
			if !e.Key.HasPrefix(q.Path()) {
				return true
			}
		}
		return false
	}
	for !remotePageIn() && net.Step() {
	}
	var server *Peer
	for _, p := range peers {
		if p != q && p.Stats().PagesServed > 0 {
			server = p
			break
		}
	}
	if server == nil {
		t.Fatal("no remote page server")
	}
	// The join: graceful entry into the serving group, state pulled by
	// one digest round, all while the scan's pulls keep flowing.
	nb := NewPeer(net, cfg)
	nb.Join(server.ID())
	for i := 0; i < 6000 && (nb.Path().Len() == 0 || nb.Store().Len() < server.Store().Len()); i++ {
		if !net.Step() {
			break
		}
	}
	if nb.Path().Len() == 0 {
		t.Fatal("join never completed")
	}
	if nb.Store().Len() < server.Store().Len() {
		t.Fatalf("join state sync incomplete: %d < %d entries", nb.Store().Len(), server.Store().Len())
	}
	if h.Done() {
		t.Fatal("scan finished before the split — scenario lost its mid-flight property")
	}
	group := []*Peer{nb}
	for _, p := range peers {
		if p.Path().Equal(server.Path()) {
			group = append(group, p)
		}
	}
	oldLen := server.Path().Len()
	if err := SplitGroup(group); err != nil {
		t.Fatalf("live split: %v", err)
	}
	if server.Path().Len() != oldLen+1 || nb.Path().Len() != oldLen+1 {
		t.Fatalf("split did not deepen paths: server=%s joiner=%s", server.Path(), nb.Path())
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete across live split: %+v", res)
	}
	checkExact(t, *streamed, facts)
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestJoinSyncRespectsWindow: a join's state sync is a digest pull paced
// by the JOINER's advertised window. Under a one-message / 1 KiB window
// the fresh peer needs well over a hundred re-pull rounds, must still
// converge to the target's exact fact set, and must never have more
// than the window plus one page in flight toward it.
func TestJoinSyncRespectsWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	cfg.FlowWindowMsgs = 1
	cfg.FlowWindowBytes = 1024
	net, peers := loadReplicated(91, 4, 2, 400, cfg)
	target := peers[0]
	nb := NewPeer(net, cfg)
	nb.Join(target.ID())
	net.Settle()
	want := target.Store().Facts()
	if got := nb.Store().Facts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("joiner holds %d facts, target %d: the sync did not converge", len(got), len(want))
	}
	bySize := append([]store.Entry(nil), want...)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].WireSize() > bySize[j].WireSize() })
	bound := cfg.FlowWindowBytes + antiEntropyMsg{Entries: bySize[:cfg.PageSize]}.WireSize()
	peak := net.Stats().MaxInflightBytes[nb.ID()]
	if peak > bound {
		t.Errorf("peak in flight toward the joiner %dB, want ≤ %dB (window + one page)", peak, bound)
	}
	t.Logf("join sync: %d facts, peak in flight %dB (bound %dB)", len(want), peak, bound)
}

// TestExchangeReplicaPairConverges: two peers meeting on one path at
// MaxSplitDepth become replicas (becomeReplicaOf) and reconcile by one
// digest round. Unique facts in different buckets converge in that
// round; unique facts sharing a bucket, where one side is ahead on
// both count and version, converge one way first (shouldPull defers
// the trailing side's fact) and fully within a few periodic rounds.
func TestExchangeReplicaPairConverges(t *testing.T) {
	path := keys.FromBits("01101001110010110100")
	if path.Len() != MaxSplitDepth {
		t.Fatalf("path depth %d, want %d", path.Len(), MaxSplitDepth)
	}
	fact := func(oid, bucketBits string, v uint64) store.Entry {
		tr := triple.TN(oid, "age", float64(v))
		k := keys.FromBits(path.String() + bucketBits + "0101")
		return store.Entry{Kind: triple.ByAV, Key: k, Triple: tr, Version: v}
	}
	pair := func(cfg Config) (*simnet.Network, *Peer, *Peer) {
		net := newNet(94)
		a, b := NewPeer(net, cfg), NewPeer(net, cfg)
		a.setPath(path)
		b.setPath(path)
		return net, a, b
	}
	converged := func(a, b *Peer, n int) bool {
		fa, fb := a.Store().Facts(), b.Store().Facts()
		return len(fa) == n && reflect.DeepEqual(fa, fb)
	}

	t.Run("disjoint buckets", func(t *testing.T) {
		net, a, b := pair(DefaultConfig())
		a.store.Apply(fact("xa1", "0000", 1))
		a.store.Apply(fact("xa2", "0001", 2))
		b.store.Apply(fact("xb1", "1110", 1))
		a.startExchange(b.ID())
		net.Settle()
		if !converged(a, b, 3) {
			t.Fatalf("pair did not converge in one round: a=%d b=%d facts", a.Store().FactCount(), b.Store().FactCount())
		}
	})

	t.Run("one bucket", func(t *testing.T) {
		cfg := DefaultConfig()
		period := 2 * time.Second
		cfg.AntiEntropyEvery = int64(period)
		net, a, b := pair(cfg)
		// b (the exchange responder, which opens the round) is ahead on
		// count and version; a's older unique fact is deferred.
		b.store.Apply(fact("xb1", "0110", 1))
		b.store.Apply(fact("xb2", "0110", 3))
		a.store.Apply(fact("xa1", "0110", 2))
		a.startExchange(b.ID())
		net.Settle()
		for i := 0; i < 3 && !converged(a, b, 3); i++ {
			net.RunFor(period)
			net.Settle()
		}
		if !converged(a, b, 3) {
			t.Fatalf("pair did not converge within three periods: a=%d b=%d facts", a.Store().FactCount(), b.Store().FactCount())
		}
	})
}

// TestMergeDuringPagedPullResumesExact: a replica group retires while
// a paged scan holds an open cursor into its partition — the leavers
// transfer their store to the sibling group, the sibling widens to the
// parent path, the leavers die. The resumed pulls must pick up at the
// cursor through the widened group, and the scan stays exact.
func TestMergeDuringPagedPullResumesExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	const facts = 120
	net, peers := loadReplicated(92, 8, 2, facts, cfg)
	q, h, streamed := scanAge(t, peers)
	remotePageIn := func() bool {
		for _, e := range *streamed {
			if !e.Key.HasPrefix(q.Path()) {
				return true
			}
		}
		return false
	}
	for !remotePageIn() && net.Step() {
	}
	// Pick a serving group whose partition (and sibling partition) the
	// origin is not part of.
	var server *Peer
	for _, p := range peers {
		if p == q || p.Stats().PagesServed == 0 {
			continue
		}
		base := p.Path()
		sib := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
		if !q.Path().Equal(base) && !q.Path().Equal(sib) {
			server = p
			break
		}
	}
	if server == nil {
		t.Fatal("no mergeable remote page server")
	}
	base := server.Path()
	sibPath := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
	var leavers, sibs []*Peer
	for _, p := range peers {
		if p.Path().Equal(base) {
			leavers = append(leavers, p)
		} else if p.Path().Equal(sibPath) {
			sibs = append(sibs, p)
		}
	}
	if len(sibs) == 0 {
		t.Fatalf("sibling partition %s has no peers", sibPath)
	}
	// Data phase: leavers hand their store to the sibling group while
	// the scan keeps pulling.
	want := sibs[0].Store().Len() + leavers[0].Store().Len()
	TransferStores(leavers, sibs[0])
	for i := 0; i < 6000 && sibs[0].Store().Len() < want; i++ {
		if !net.Step() {
			break
		}
	}
	if sibs[0].Store().Len() < want {
		t.Fatalf("store transfer incomplete: %d < %d entries", sibs[0].Store().Len(), want)
	}
	if h.Done() {
		t.Fatal("scan finished before the merge — scenario lost its mid-flight property")
	}
	// Structure phase: the sibling group widens to the parent and the
	// leavers depart for good.
	if err := WidenGroup(sibs); err != nil {
		t.Fatalf("widen: %v", err)
	}
	for _, p := range leavers {
		net.Kill(p.ID())
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete across live merge: %+v", res)
	}
	checkExact(t, *streamed, facts)
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// xferTap is a simulated network that records the entry count of every
// xferMsg sent.
type xferTap struct {
	*simnet.Network
	sizes []int
}

func (t *xferTap) Send(from, to NodeID, kind string, payload any) {
	if x, ok := payload.(xferMsg); ok {
		t.sizes = append(t.sizes, len(x.Entries))
	}
	t.Network.Send(from, to, kind, payload)
}

// TestSplitTransfersInPages: a split ships its dropped half to the
// other side in transfer pages of at most PageSize entries, as a
// merge's data phase does, and both halves still answer exactly.
func TestSplitTransfersInPages(t *testing.T) {
	net := &xferTap{Network: newNet(97)}
	cfg := DefaultConfig()
	cfg.PageSize = 8
	peers := build(net, 97, 1, 2, cfg)
	const facts = 40
	var ts []triple.Triple
	for i := 0; i < facts; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("xp%02d", i), "age", float64(i)))
	}
	write(net.Network, peers, ts...)
	if err := SplitGroup(peers); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	total := 0
	for _, n := range net.sizes {
		if n > cfg.PageSize {
			t.Errorf("xferMsg carried %d entries, page size %d", n, cfg.PageSize)
		}
		total += n
	}
	if total <= cfg.PageSize {
		t.Fatalf("split transferred %d entries, want a dropped half larger than one page (%d)", total, cfg.PageSize)
	}
	for _, q := range peers {
		res := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
		if !res.Complete || len(res.Entries) != facts {
			t.Errorf("scan from %v after split: complete=%v, %d entries, want %d",
				q.ID(), res.Complete, len(res.Entries), facts)
		}
	}
}

// TestSplitInvalidatesCachesWarmProbeRecovers: a live split must not
// poison learned routing caches — the stale direct probe re-routes,
// answers exactly, repairs the origin's cache (visible as an
// invalidation), and the NEXT probe lands in one hop again.
func TestSplitInvalidatesCachesWarmProbeRecovers(t *testing.T) {
	net, peers := loadReplicated(93, 8, 2, 48, DefaultConfig())
	q := peers[0]
	var key keys.Key
	for i := 0; i < 48; i++ {
		if k := triple.AVKey("age", triple.N(float64(i))); !q.Responsible(k) {
			key = k
			break
		}
	}
	cold := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !cold.Complete || cold.Count != 1 {
		t.Fatalf("cold lookup: %+v", cold)
	}
	before := net.Stats().MessagesSent
	warm := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !warm.Complete || warm.Count != 1 {
		t.Fatalf("warm lookup: %+v", warm)
	}
	if n := net.Stats().MessagesSent - before; n > 2 {
		t.Fatalf("warm probe cost %d messages, want ≤2", n)
	}
	var owner *Peer
	for _, p := range peers {
		if p.Responsible(key) {
			owner = p
			break
		}
	}
	var group []*Peer
	for _, p := range peers {
		if p.Path().Equal(owner.Path()) {
			group = append(group, p)
		}
	}
	invalBefore := 0
	for _, p := range peers {
		invalBefore += p.Stats().RouteCacheInvalidations
	}
	if err := SplitGroup(group); err != nil {
		t.Fatalf("live split: %v", err)
	}
	net.Settle()
	// Stale probe: the cached owner set predates the split. It must
	// still answer exactly (re-routed if the chosen replica lost the
	// key's half) and teach the origin the deeper partition.
	res := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !res.Complete || res.Count != 1 {
		t.Fatalf("post-split probe: %+v", res)
	}
	invalAfter := 0
	for _, p := range peers {
		invalAfter += p.Stats().RouteCacheInvalidations
	}
	if invalAfter <= invalBefore {
		t.Errorf("split invalidated no routing-cache entries (%d before, %d after)", invalBefore, invalAfter)
	}
	// Self-repaired: the re-learned set probes direct again.
	before = net.Stats().MessagesSent
	rewarm := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !rewarm.Complete || rewarm.Count != 1 {
		t.Fatalf("re-warmed lookup: %+v", rewarm)
	}
	if n := net.Stats().MessagesSent - before; n > 2 {
		t.Errorf("re-warmed probe cost %d messages, want ≤2 (cache did not self-repair)", n)
	}
}

// TestWarmProbeAllocsBounded guards the warm probe path against O(N)
// allocation regressions: on a 256-peer overlay a warm lookup must
// stay under a flat allocation bound — an accidental per-peer scan or
// per-probe map rebuild blows straight past it.
func TestWarmProbeAllocsBounded(t *testing.T) {
	net, peers := loadReplicated(95, 256, 1, 64, DefaultConfig())
	_ = net
	q := peers[0]
	var key keys.Key
	for i := 0; i < 64; i++ {
		if k := triple.AVKey("age", triple.N(float64(i))); !q.Responsible(k) {
			key = k
			break
		}
	}
	if warm := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait); !warm.Complete || warm.Count != 1 {
		t.Fatalf("warmup lookup: %+v", warm)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if res := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait); !res.Complete {
			t.Error("warm lookup incomplete")
		}
	})
	const bound = 150
	if allocs > bound {
		t.Errorf("warm probe allocated %.0f objects per lookup on a 256-peer overlay (bound %d): an O(peers) allocation crept into the probe path", allocs, bound)
	}
	t.Logf("warm probe: %.1f allocs per lookup", allocs)
}
