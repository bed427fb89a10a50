package pgrid

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/triple"
)

// routeCacheSize reports how many partition→owner-set entries the peer
// has learned.
func (p *Peer) routeCacheSize() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cache.entries)
}

// routeCacheOwners reports how many replicas the cache tracks for the
// partition covering target.
func (p *Peer) routeCacheOwners(target keys.Key) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	set, ok := p.cache.setLocked(target)
	if !ok {
		return 0
	}
	return len(set.owners)
}

// TestRouteCacheLearnsAndGoesDirect: repeat probes for the same region
// must hit the cache and reach the responsible peer in one hop.
func TestRouteCacheLearnsAndGoesDirect(t *testing.T) {
	net := newNet(51)
	peers := build(net, 51, 32, 1, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 64; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("rc%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)

	q := peers[0]
	key := triple.AVKey("age", triple.N(7))
	cold := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !cold.Complete || len(cold.Entries) != 1 {
		t.Fatalf("cold lookup: %+v", cold)
	}
	if q.routeCacheSize() == 0 {
		t.Fatal("response did not populate the routing cache")
	}
	hitsBefore := q.Stats().RouteCacheHits
	msgsBefore := net.Stats().MessagesSent
	warm := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !warm.Complete || len(warm.Entries) != 1 {
		t.Fatalf("warm lookup: %+v", warm)
	}
	warmMsgs := net.Stats().MessagesSent - msgsBefore
	if q.Stats().RouteCacheHits <= hitsBefore {
		t.Error("warm lookup did not use the cache")
	}
	if warmMsgs > 2 {
		t.Errorf("warm cached lookup cost %d messages, want ≤ 2 (request + response)", warmMsgs)
	}
	if warm.Hops > 1 {
		t.Errorf("warm cached lookup took %d hops, want 1", warm.Hops)
	}
}

// TestRouteCacheFallbackOnDeadOwner: a dead primary owner must fail
// over to the cached sibling replica without giving up the direct fast
// path; once EVERY cached owner of the partition is dead, the entry is
// invalidated at send time and the probe still succeeds through normal
// routing (replicated partitions keep the data reachable).
func TestRouteCacheFallbackOnDeadOwner(t *testing.T) {
	net := newNet(52)
	peers := build(net, 52, 16, 2, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 32; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("fd%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)

	q := peers[0]
	key := triple.AVKey("age", triple.N(11))
	cold := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !cold.Complete || len(cold.Entries) != 1 {
		t.Fatalf("cold lookup: %+v", cold)
	}
	if q.routeCacheOwners(key) < 2 {
		t.Fatalf("response did not teach the replica set (owners %d)", q.routeCacheOwners(key))
	}
	// Kill the peer that answered; the owner set still names its live
	// sibling, so the follow-up probe stays direct — no invalidation.
	q.mu.RLock()
	var dead Ref
	for _, s := range q.cache.entries {
		dead = s.owners[0].Ref
	}
	q.mu.RUnlock()
	net.Kill(dead.ID)

	hitsBefore := q.Stats().RouteCacheHits
	again := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !again.Complete || len(again.Entries) != 1 {
		t.Fatalf("lookup after owner death: %+v", again)
	}
	if q.Stats().RouteCacheHits <= hitsBefore {
		t.Error("dead primary did not fail over through the cached replica set")
	}

	// Strip the owner set down to the corpse (simulating a cache that
	// never learned the sibling): the send-time fallback must now
	// invalidate the entry and the probe must still resolve via prefix
	// routing to the live replica.
	q.mu.Lock()
	for _, s := range q.cache.entries {
		if s.path.Len() > 0 && key.HasPrefix(s.path) {
			for _, o := range s.owners {
				if o.ID == dead.ID {
					s.owners = []ownerInfo{o}
					break
				}
			}
		}
	}
	q.mu.Unlock()
	invBefore := q.Stats().RouteCacheInvalidations
	final := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !final.Complete || len(final.Entries) != 1 {
		t.Fatalf("lookup after owner-set death: %+v", final)
	}
	if q.Stats().RouteCacheInvalidations <= invBefore {
		t.Error("dead owner set was not invalidated")
	}
}

// TestRouteCacheSurvivesChurn is the merge/late-join churn scenario:
// warm caches against one overlay, merge a second overlay in (which
// splits partitions and moves data), and verify that queries through
// the now-stale caches still return correct results — stale entries
// repair through the route-failure fallback and response learning.
func TestRouteCacheSurvivesChurn(t *testing.T) {
	net := newNet(53)
	var data []triple.Triple
	for i := 0; i < 40; i++ {
		data = append(data, triple.TN(chOID(i), "age", float64(i)))
	}
	// Adapt the trie to the OID index keys: their uniform fnv bytes
	// split the OID region across most of the 16 peers, so the warmed
	// cache holds a real partition map (a shallow balanced trie would
	// put the whole region on one peer and the test would prove
	// nothing).
	var samples []keys.Key
	for _, tr := range data {
		samples = append(samples, triple.IndexKey(tr, triple.ByOID))
	}
	a := buildSpecs(net, PlanSpecs(0, 16, 1, samples, DefaultConfig(), 53), DefaultConfig())
	write(net, a, data...)

	// Warm the cache of a querying peer across many partitions.
	q := a[0]
	lookupAll := func(label string) {
		t.Helper()
		for i := 0; i < 40; i++ {
			key := triple.OIDKey(chOID(i))
			res := q.Lookup(triple.ByOID, []keys.Key{key}, nil).Wait(opWait)
			if !res.Complete || len(res.Entries) != 1 {
				t.Fatalf("%s: lookup ch%02d got %+v", label, i, res)
			}
		}
	}
	lookupAll("pre-churn")
	if q.routeCacheSize() < 2 {
		t.Fatalf("cache not warmed across partitions (size %d)", q.routeCacheSize())
	}

	// Churn: an independent overlay merges in. Paths deepen, partitions
	// split, entries re-home — the warmed partition map is now stale.
	b := buildSpecs(net, PlanSpecs(16, 8, 1, nil, DefaultConfig(), 53), DefaultConfig())
	RunMerge(net, a, b, 6)
	net.RunFor(30 * time.Second)
	net.Settle()
	if err := checkTrie(pathsOf(append(append([]*Peer{}, a...), b...))); err != nil {
		t.Fatalf("merged trie invalid: %v", err)
	}

	// Same queries through the stale cache must still be answered
	// correctly (direct sends that miss forward onward; responses
	// replace the stale entries).
	invBefore := q.Stats().RouteCacheInvalidations
	lookupAll("post-churn")
	lookupAll("post-churn-rewarmed")
	if q.routeCacheSize() == 0 {
		t.Error("cache never re-learned the merged trie")
	}
	t.Logf("churn: cache size %d, invalidations %d → %d", q.routeCacheSize(),
		invBefore, q.Stats().RouteCacheInvalidations)
}

// TestRouteCacheStaleEntryRepairs: a cached entry pointing at a peer
// that is NOT responsible (the partition moved under it) must still
// deliver — the wrong peer forwards the envelope onward — and the
// response must repair the cache: the wrong peer leaves the owner set,
// so every later probe goes direct again. (Left in the set, the wrong
// peer kept winning the replica chooser's latency tie-break once the
// owner had a sample, and later lookups detoured again.)
func TestRouteCacheStaleEntryRepairs(t *testing.T) {
	for seed := int64(50); seed <= 61; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			staleEntryRepairs(t, seed)
		})
	}
}

func staleEntryRepairs(t *testing.T, seed int64) {
	net := newNet(seed)
	peers := build(net, seed, 32, 1, DefaultConfig())
	var ts []triple.Triple
	for i := 0; i < 64; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("st%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)

	key := triple.AVKey("age", triple.N(5))
	var owner *Peer
	var others []*Peer
	for _, p := range peers {
		if p.Responsible(key) {
			owner = p
		} else {
			others = append(others, p)
		}
	}
	if owner == nil || len(others) < 2 {
		t.Fatal("topology did not yield owner and non-owners")
	}
	q, wrong := others[0], others[1]
	// Poison the cache: claim the wrong peer owns the key's partition —
	// exactly what churn leaves behind when a partition moves.
	q.mu.Lock()
	q.cache.learnLocked(owner.Path(), Ref{ID: wrong.ID(), Path: owner.Path()})
	q.mu.Unlock()

	res := q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
	if !res.Complete || len(res.Entries) != 1 {
		t.Fatalf("lookup through stale entry: %+v", res)
	}
	if res.Hops < 2 {
		t.Errorf("stale direct send resolved in %d hops; the fallback leg should add at least one", res.Hops)
	}
	q.mu.RLock()
	var set []NodeID
	if s, ok := q.cache.entries[owner.Path().String()]; ok {
		for _, o := range s.owners {
			set = append(set, o.ID)
		}
	}
	q.mu.RUnlock()
	if !slices.Equal(set, []NodeID{owner.ID()}) {
		t.Errorf("cache not repaired: owner set %v, want [%d]", set, owner.ID())
	}
	var hops []int
	for i := 0; i < 8; i++ {
		hops = append(hops, q.Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait).Hops)
	}
	if slices.Max(hops) > 1 {
		t.Errorf("post-repair lookups took hops %v, want all 1", hops)
	}
}

// TestRouteCacheLearnReplacesSplitEntries: learning a deeper path must
// drop cached entries at strict prefixes (the partition split).
func TestRouteCacheLearnReplacesSplitEntries(t *testing.T) {
	c := newRouteCache()
	p01 := keys.FromBits("01")
	c.learnLocked(p01, Ref{ID: 1, Path: p01})
	if _, ok := c.lookupLocked(keys.FromBits("0110")); !ok {
		t.Fatal("prefix entry must match extensions")
	}
	p011 := keys.FromBits("011")
	if inv := c.learnLocked(p011, Ref{ID: 2, Path: p011}); inv != 1 {
		t.Fatalf("split learn invalidated %d entries, want 1", inv)
	}
	if _, ok := c.lookupLocked(keys.FromBits("0100")); ok {
		t.Error("stale pre-split entry must be gone")
	}
	if r, ok := c.lookupLocked(keys.FromBits("0110")); !ok || r.ID != 2 {
		t.Errorf("post-split lookup = %+v, %v", r, ok)
	}
}

// chOID names the churn-test facts with a varying first character:
// FNV's avalanche is weak in the high bytes for strings differing only
// at the tail, and the OID index places by the hash's high bytes — a
// leading difference is what actually spreads the keys.
func chOID(i int) string { return fmt.Sprintf("%c-ch%02d", 'a'+i%26, i) }
