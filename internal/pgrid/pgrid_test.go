package pgrid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// opWait bounds the tests' synchronous operations in simulated time.
const opWait = 5 * time.Minute

func newNet(seed int64) *simnet.Network {
	return simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: seed})
}

// write stores ts through acked writes at version 1, ts[i] from
// peers[i%len(peers)], waits for every ack and settles the network (a
// plain net.Run would also drain each operation's deadline timer).
func write(net *simnet.Network, peers []*Peer, ts ...triple.Triple) {
	hs := make([]*Handle, len(ts))
	for i, tr := range ts {
		hs[i] = peers[i%len(peers)].InsertTripleAcked(tr, 1, nil)
	}
	for _, h := range hs {
		h.Wait(0)
	}
	net.Settle()
}

// build plans a balanced overlay of n partitions × replicas peers with
// IDs from 0 and instantiates all of it on net, which must be fresh
// and built with seed.
func build(net Transport, seed int64, n, replicas int, cfg Config) []*Peer {
	return buildSpecs(net, PlanSpecs(0, n, replicas, nil, cfg, seed), cfg)
}

// buildSpecs instantiates every spec of a planned overlay on net.
func buildSpecs(net Transport, specs []NodeSpec, cfg Config) []*Peer {
	peers, err := BuildFromSpecs(net, specs, specs, cfg)
	if err != nil {
		panic(err)
	}
	return peers
}

// pathsOf returns the peers' trie paths.
func pathsOf(peers []*Peer) []keys.Key {
	out := make([]keys.Key, len(peers))
	for i, p := range peers {
		out[i] = p.Path()
	}
	return out
}

// checkTrie validates that the distinct paths among paths form a
// complete prefix-free cover of the key space: no path is a prefix of
// another, and Σ 2^-depth == 1. It returns an error describing the
// first violation.
func checkTrie(paths []keys.Key) error {
	parts := append([]keys.Key(nil), paths...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Compare(parts[j]) < 0 })
	parts = slices.CompactFunc(parts, keys.Key.Equal)
	for i := 0; i < len(parts)-1; i++ {
		if parts[i+1].HasPrefix(parts[i]) {
			return fmt.Errorf("partition %s is a prefix of %s", parts[i], parts[i+1])
		}
	}
	// Σ 2^(maxDepth - depth) must equal 2^maxDepth.
	maxDepth := 0
	for _, p := range parts {
		maxDepth = max(maxDepth, p.Len())
	}
	var sum uint64
	for _, p := range parts {
		sum += 1 << uint(maxDepth-p.Len())
	}
	if full := uint64(1) << uint(maxDepth); sum != full {
		return fmt.Errorf("partitions cover %d/%d of the key space", sum, full)
	}
	return nil
}

// runBootstrap drives decentralized construction: `rounds` rounds of
// random pairwise exchanges over all peers, advancing the network
// between rounds.
func runBootstrap(net *simnet.Network, peers []*Peer, rounds int) {
	for r := 0; r < rounds; r++ {
		perm := net.Perm(len(peers))
		for i := 0; i+1 < len(perm); i += 2 {
			peers[perm[i]].startExchange(peers[perm[i+1]].id)
		}
		// Let the exchanges (and any re-homing traffic) settle.
		net.RunFor(5 * time.Second)
		net.Settle()
	}
}

func TestPlannedTrieInvariant(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64, 100} {
		net := newNet(1)
		peers := build(net, 1, n, 1, DefaultConfig())
		if len(peers) != n {
			t.Fatalf("n=%d: built %d peers", n, len(peers))
		}
		if err := checkTrie(pathsOf(peers)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPlannedBalancedDepths(t *testing.T) {
	net := newNet(2)
	peers := build(net, 2, 8, 1, DefaultConfig())
	for _, p := range peers {
		if p.Path().Len() != 3 {
			t.Errorf("8 peers must sit at depth 3, got %s", p.Path())
		}
	}
}

func TestRoutingReachesResponsiblePeer(t *testing.T) {
	net := newNet(3)
	peers := build(net, 3, 32, 1, DefaultConfig())
	// Insert from an arbitrary peer, then look up from every peer.
	origin := peers[7]
	tr := triple.T("a12", "confname", "ICDE 2006 - Workshops")
	res := origin.InsertTripleAcked(tr, 1, nil).Wait(opWait)
	if !res.Complete {
		t.Fatal("insert did not complete")
	}
	for _, p := range peers {
		got := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("confname", triple.S("ICDE 2006 - Workshops"))}, nil).Wait(opWait)
		if !got.Complete || len(got.Entries) != 1 || !got.Entries[0].Triple.Equal(tr) {
			t.Fatalf("lookup from peer %d failed: %+v", p.ID(), got)
		}
	}
}

func TestDataPlacementMatchesPartition(t *testing.T) {
	net := newNet(4)
	peers := build(net, 4, 16, 1, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 200; i++ {
		tp := triple.NewTuple(triple.GenerateOID("pl")).
			Set("name", triple.S(fmt.Sprintf("person-%03d", i))).
			Set("age", triple.N(float64(20+i%60)))
		ts = append(ts, tp.Triples()...)
	}
	write(net, peers, ts...)
	// Every stored entry must live on the peer whose partition holds
	// its placement key.
	total := 0
	for _, p := range peers {
		for _, kind := range triple.AllIndexKinds {
			for _, e := range p.Store().Entries(kind) {
				if !e.Key.HasPrefix(p.Path()) {
					t.Fatalf("peer %s stores foreign key %s", p.Path(), e.Key)
				}
				total++
			}
		}
	}
	if total != 200*2*3 {
		t.Fatalf("stored %d entries, want %d", total, 200*2*3)
	}
}

func TestRoutingHopsLogarithmic(t *testing.T) {
	// E2's invariant: average hops ≈ log2(n)/2..log2(n), max ≤ depth.
	for _, n := range []int{16, 64, 256} {
		net := newNet(5)
		peers := build(net, 5, n, 1, DefaultConfig())
		tr := triple.T("x", "year", "2006")
		peers[0].InsertTripleAcked(tr, 1, nil).Wait(opWait)
		depth := int(math.Ceil(math.Log2(float64(n))))
		sumHops, count := 0, 0
		for _, p := range peers {
			res := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("year", triple.S("2006"))}, nil).Wait(opWait)
			if !res.Complete {
				t.Fatalf("n=%d: lookup incomplete", n)
			}
			if res.Hops > depth {
				t.Errorf("n=%d: %d hops exceeds trie depth %d", n, res.Hops, depth)
			}
			sumHops += res.Hops
			count++
		}
		avg := float64(sumHops) / float64(count)
		if avg > float64(depth) {
			t.Errorf("n=%d: average hops %.2f exceeds depth %d", n, avg, depth)
		}
	}
}

func TestRangeQueryShower(t *testing.T) {
	net := newNet(6)
	peers := build(net, 6, 32, 1, DefaultConfig())
	var ts []triple.Triple
	for y := 1990; y < 2010; y++ {
		ts = append(ts, triple.TN(fmt.Sprintf("pub%d", y), "year", float64(y)))
	}
	write(net, peers, ts...)
	lo, hi := triple.N(1995), triple.N(2000)
	res := peers[3].RangeQuery(triple.ByAV, triple.AVRange("year", lo, &hi), nil).Wait(opWait)
	if !res.Complete {
		t.Fatal("range query incomplete")
	}
	if len(res.Entries) != 5 {
		t.Fatalf("range [1995,2000) returned %d entries, want 5", len(res.Entries))
	}
	for _, e := range res.Entries {
		if y := e.Triple.Val.Num; y < 1995 || y >= 2000 {
			t.Errorf("out-of-range year %v", y)
		}
	}
}

func TestRangeQueryUnboundedAndEmpty(t *testing.T) {
	net := newNet(7)
	peers := build(net, 7, 8, 1, DefaultConfig())
	var ts []triple.Triple
	for y := 2000; y < 2006; y++ {
		ts = append(ts, triple.TN(fmt.Sprintf("p%d", y), "year", float64(y)))
	}
	write(net, peers[:1], ts...)
	res := peers[1].RangeQuery(triple.ByAV, triple.AVRange("year", triple.N(2003), nil), nil).Wait(opWait)
	if len(res.Entries) != 3 {
		t.Fatalf("year >= 2003 returned %d, want 3", len(res.Entries))
	}
	res = peers[1].RangeQuery(triple.ByAV, triple.AVRange("year", triple.N(2050), nil), nil).Wait(opWait)
	if !res.Complete || len(res.Entries) != 0 {
		t.Fatalf("empty range: complete=%v n=%d", res.Complete, len(res.Entries))
	}
}

func TestBroadcastReachesAllPartitions(t *testing.T) {
	net := newNet(8)
	peers := build(net, 8, 16, 1, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 64; i++ {
		ts = append(ts, triple.T(fmt.Sprintf("o%d", i), "name", fmt.Sprintf("n%02d", i)))
	}
	write(net, peers, ts...)
	res := peers[5].RangeQuery(triple.ByAV, keys.Range{}, nil).Wait(0)
	if !res.Complete {
		t.Fatal("broadcast incomplete")
	}
	if res.Responses != 16 {
		t.Errorf("broadcast responses = %d, want 16 (one per partition)", res.Responses)
	}
	if len(res.Entries) != 64 {
		t.Errorf("broadcast collected %d entries, want 64", len(res.Entries))
	}
}

func TestReplicationAndFailover(t *testing.T) {
	net := newNet(10)
	peers := build(net, 10, 8, 3, DefaultConfig()) // 8 partitions × 3 replicas
	tr := triple.T("a12", "title", "Similarity...")
	peers[0].InsertTripleAcked(tr, 1, nil).Wait(opWait)
	net.Run() // drain replica pushes
	// Count replicas holding the A#v entry.
	key := triple.AVKey("title", triple.S("Similarity..."))
	holders := 0
	var holderPeers []*Peer
	for _, p := range peers {
		if len(p.Store().Lookup(triple.ByAV, key)) > 0 {
			holders++
			holderPeers = append(holderPeers, p)
		}
	}
	if holders != 3 {
		t.Fatalf("entry replicated to %d peers, want 3", holders)
	}
	// Kill one replica; lookups must still succeed via alternates.
	net.Kill(holderPeers[0].ID())
	ok := 0
	for _, p := range peers {
		if net.Alive(p.ID()) {
			res := p.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
			if res.Complete && len(res.Entries) == 1 {
				ok++
			}
		}
	}
	if ok < len(peers)-5 { // allow a few failures from stale refs
		t.Errorf("only %d/%d peers could read after replica failure", ok, len(peers)-1)
	}
}

func TestUpdatePropagationToReplicas(t *testing.T) {
	net := newNet(11)
	peers := build(net, 11, 4, 3, DefaultConfig())
	tr := triple.T("p1", "phone", "111")
	peers[0].InsertTripleAcked(tr, 1, nil).Wait(opWait)
	net.Run()
	peers[3].InsertTripleAcked(triple.T("p1", "phone", "222"), 2, nil).Wait(opWait)
	net.Run()
	key := triple.AVKey("phone", triple.S("222"))
	holders := 0
	for _, p := range peers {
		for _, e := range p.Store().Lookup(triple.ByAV, key) {
			if e.Triple.Val.Str == "222" && e.Version == 2 {
				holders++
			}
		}
	}
	if holders != 3 {
		t.Errorf("updated value on %d replicas, want 3", holders)
	}
}

func TestAntiEntropyConvergenceAfterPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AntiEntropyEvery = int64(2 * time.Second)
	net := newNet(12)
	peers := build(net, 12, 4, 3, cfg)
	// Find the replica group holding this entry.
	tr := triple.T("p9", "email", "a@b")
	key := triple.AVKey("email", triple.S("a@b"))
	var group []*Peer
	for _, p := range peers {
		if key.HasPrefix(p.Path()) {
			group = append(group, p)
		}
	}
	if len(group) != 3 {
		t.Fatalf("replica group size %d", len(group))
	}
	// One replica is down during the write.
	net.Kill(group[0].ID())
	peers[0].InsertTripleAcked(tr, 5, nil).Wait(opWait)
	net.RunFor(1 * time.Second)
	if len(group[0].Store().Lookup(triple.ByAV, key)) != 0 {
		t.Fatal("dead replica received the write")
	}
	// It comes back; anti-entropy repairs it.
	net.Revive(group[0].ID())
	net.RunFor(30 * time.Second)
	if len(group[0].Store().Lookup(triple.ByAV, key)) != 1 {
		t.Error("anti-entropy did not repair the returned replica")
	}
}

func TestDeleteTombstonePropagates(t *testing.T) {
	net := newNet(13)
	peers := build(net, 13, 8, 1, DefaultConfig())
	tr := triple.T("doomed", "name", "x")
	peers[0].InsertTripleAcked(tr, 1, nil).Wait(opWait)
	dead := triple.Triple{OID: "doomed", Attr: "name"}
	var es []store.Entry
	for _, kind := range triple.AllIndexKinds {
		es = append(es, store.Entry{Kind: kind, Key: triple.IndexKey(dead, kind),
			Triple: dead, Version: 2, Deleted: true})
	}
	if res := peers[2].Write(es, nil).Wait(0); !res.Complete {
		t.Fatal("tombstone write not acked")
	}
	res := peers[4].Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("x"))}, nil).Wait(opWait)
	if len(res.Entries) != 0 {
		t.Errorf("deleted fact still visible: %v", res.Entries)
	}
}

func TestBootstrapConvergence(t *testing.T) {
	net := newNet(14)
	cfg := DefaultConfig()
	var peers []*Peer
	for i := 0; i < 32; i++ {
		peers = append(peers, NewPeer(net, cfg))
	}
	runBootstrap(net, peers, 40)
	// All partitions must be prefix-free and cover the key space.
	if err := checkTrie(pathsOf(peers)); err != nil {
		// Replica groups are allowed: checkTrie dedupes paths first,
		// so an error is structural.
		t.Fatalf("bootstrap trie invalid: %v", err)
	}
	// Paths must have differentiated (no peer stuck at the root).
	for _, p := range peers {
		if p.Path().Len() == 0 {
			t.Fatalf("peer %d still has the empty path", p.ID())
		}
	}
	// Routing must work on the bootstrapped trie.
	tr := triple.T("boot", "name", "strapped")
	res := peers[0].InsertTripleAcked(tr, 1, nil).Wait(opWait)
	if !res.Complete {
		t.Fatal("insert on bootstrapped trie failed")
	}
	okCount := 0
	for _, p := range peers {
		got := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("strapped"))}, nil).Wait(opWait)
		if got.Complete && len(got.Entries) == 1 {
			okCount++
		}
	}
	if okCount < len(peers)*9/10 {
		t.Errorf("only %d/%d peers can route lookups after bootstrap", okCount, len(peers))
	}
}

func TestMergeTwoOverlays(t *testing.T) {
	net := newNet(15)
	a := build(net, 15, 8, 1, DefaultConfig())
	b := buildSpecs(net, PlanSpecs(8, 8, 1, nil, DefaultConfig(), 15), DefaultConfig())
	// Each overlay holds distinct data.
	a[0].InsertTripleAcked(triple.T("fromA", "name", "alice"), 1, nil).Wait(opWait)
	b[0].InsertTripleAcked(triple.T("fromB", "name", "bob"), 1, nil).Wait(opWait)
	net.Run()
	RunMerge(net, a, b, 6)
	// After merging, peers from A must find B's data and vice versa.
	all := append(append([]*Peer(nil), a...), b...)
	okA, okB := 0, 0
	for _, p := range all {
		if r := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("bob"))}, nil).Wait(opWait); r.Complete && len(r.Entries) >= 1 {
			okA++
		}
		if r := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("alice"))}, nil).Wait(opWait); r.Complete && len(r.Entries) >= 1 {
			okB++
		}
	}
	if okA < len(all)*8/10 || okB < len(all)*8/10 {
		t.Errorf("post-merge reachability: bob %d/%d, alice %d/%d", okA, len(all), okB, len(all))
	}
}

func TestAdaptiveBuildBalancesSkew(t *testing.T) {
	// Zipf-like skew: 80% of keys fall in the 1/16th of the key space
	// below prefix 0000. The adaptive trie must yield a visibly more
	// even storage distribution than the peer-balanced trie.
	mkKeys := func() []keys.Key {
		rng := simnet.New(simnet.Config{Seed: 77}).Rand()
		var ks []keys.Key
		for i := 0; i < 2000; i++ {
			k := keys.Empty
			if i%5 != 0 {
				k = keys.FromBits("0000")
			}
			for k.Len() < 24 {
				k = k.Append(rng.Intn(2))
			}
			ks = append(ks, k)
		}
		return ks
	}
	load := func(peers []*Peer, ks []keys.Key) (max int, avg float64) {
		counts := make(map[string]int)
		for _, k := range ks {
			for _, p := range peers {
				if k.HasPrefix(p.Path()) {
					counts[p.Path().String()]++
					break
				}
			}
		}
		sum := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
			sum += c
		}
		return max, float64(sum) / float64(len(peers))
	}
	ks := mkKeys()
	netA := newNet(16)
	balanced := build(netA, 16, 16, 1, DefaultConfig())
	netB := newNet(16)
	adaptive := buildSpecs(netB, PlanSpecs(0, 16, 1, ks, DefaultConfig(), 16), DefaultConfig())
	if err := checkTrie(pathsOf(adaptive)); err != nil {
		t.Fatalf("adaptive trie invalid: %v", err)
	}
	maxBal, avg := load(balanced, ks)
	maxAda, _ := load(adaptive, ks)
	t.Logf("skewed load: balanced max=%d adaptive max=%d avg=%.1f", maxBal, maxAda, avg)
	if maxAda >= maxBal {
		t.Errorf("adaptive trie must lower the max load: balanced=%d adaptive=%d", maxBal, maxAda)
	}
}

func TestChurnLookupsSurvive(t *testing.T) {
	net := newNet(17)
	peers := build(net, 17, 32, 2, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("c%d", i), "age", float64(i)))
	}
	write(net, peers, ts...)
	// Kill 20% of peers.
	for i := 0; i < len(peers); i += 5 {
		net.Kill(peers[i].ID())
	}
	ok, tried := 0, 0
	for i, p := range peers {
		if !net.Alive(p.ID()) || i%3 != 0 {
			continue
		}
		tried++
		res := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("age", triple.N(7))}, nil).Wait(opWait)
		if res.Complete && len(res.Entries) == 1 {
			ok++
		}
	}
	if ok*10 < tried*7 {
		t.Errorf("under 20%% churn only %d/%d lookups succeeded", ok, tried)
	}
}

func TestCheckTrieDetectsViolations(t *testing.T) {
	net := newNet(18)
	peers := build(net, 18, 4, 1, DefaultConfig())
	// Corrupt one path to be a prefix of another.
	peers[0].setPath(peers[1].Path().Prefix(1))
	if err := checkTrie(pathsOf(peers)); err == nil {
		t.Error("checkTrie must detect prefix violations")
	}
	net2 := newNet(18)
	peers2 := build(net2, 18, 4, 1, DefaultConfig())
	peers2[0].setPath(keys.FromBits("11111"))
	if err := checkTrie(pathsOf(peers2)); err == nil {
		t.Error("checkTrie must detect coverage gaps")
	}
}

func TestAppPayloadRouting(t *testing.T) {
	net := newNet(19)
	peers := build(net, 19, 16, 1, DefaultConfig())
	var gotPayload any
	var gotHops int
	for _, p := range peers {
		p.SetAppHandler(func(self *Peer, payload any, from simnet.NodeID, hops int) {
			gotPayload, gotHops = payload, hops
		})
	}
	target := triple.AVKey("name", triple.S("zzz"))
	peers[0].SendApp(target, "mutant-plan")
	net.Run()
	if gotPayload != "mutant-plan" {
		t.Fatalf("app payload not delivered: %v", gotPayload)
	}
	if gotHops < 0 || gotHops > 5 {
		t.Errorf("hops = %d", gotHops)
	}
	// Direct send too.
	gotPayload = nil
	peers[0].SendAppDirect(peers[5].ID(), "direct")
	net.Run()
	if gotPayload != "direct" {
		t.Error("direct app payload not delivered")
	}
}

func TestRefsInspection(t *testing.T) {
	net := newNet(20)
	peers := build(net, 20, 16, 1, DefaultConfig())
	p := peers[0]
	if p.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", p.Levels())
	}
	for l := 0; l < p.Levels(); l++ {
		refs := p.Refs(l)
		if len(refs) == 0 {
			t.Fatalf("no refs at level %d", l)
		}
		for _, r := range refs {
			wantPrefix := p.Path().Prefix(l).Append(1 - p.Path().Bit(l))
			if !r.Path.HasPrefix(wantPrefix) {
				t.Errorf("level-%d ref path %s lacks prefix %s", l, r.Path, wantPrefix)
			}
		}
	}
	if p.Refs(-1) != nil || p.Refs(99) != nil {
		t.Error("out-of-range levels must return nil")
	}
}

func TestSinglePeerOverlay(t *testing.T) {
	net := newNet(21)
	peers := build(net, 21, 1, 1, DefaultConfig())
	p := peers[0]
	tr := triple.T("solo", "name", "only")
	res := p.InsertTripleAcked(tr, 1, nil).Wait(opWait)
	if !res.Complete {
		t.Fatal("single-peer insert failed")
	}
	got := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("only"))}, nil).Wait(opWait)
	if len(got.Entries) != 1 {
		t.Fatal("single-peer lookup failed")
	}
	rng := p.RangeQuery(triple.ByAV, triple.AVPrefixRange("name"), nil).Wait(opWait)
	if !rng.Complete || len(rng.Entries) != 1 {
		t.Fatal("single-peer range failed")
	}
}

func BenchmarkLookup64(b *testing.B) {
	net := newNet(22)
	peers := build(net, 22, 64, 1, DefaultConfig())
	peers[0].InsertTripleAcked(triple.T("x", "year", "2006"), 1, nil).Wait(opWait)
	key := triple.AVKey("year", triple.S("2006"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peers[i%64].Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	}
}

func BenchmarkRangeQuery64(b *testing.B) {
	net := newNet(23)
	peers := build(net, 23, 64, 1, DefaultConfig())
	var ts []triple.Triple
	for y := 1950; y < 2010; y++ {
		ts = append(ts, triple.TN(fmt.Sprintf("p%d", y), "year", float64(y)))
	}
	write(net, peers[:1], ts...)
	lo, hi := triple.N(1990), triple.N(2000)
	r := triple.AVRange("year", lo, &hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peers[i%64].RangeQuery(triple.ByAV, r, nil).Wait(opWait)
	}
}
