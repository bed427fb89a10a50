package pgrid

import (
	"time"

	"unistore/internal/keys"
	"unistore/internal/simnet"
)

// This file implements the per-peer routing cache: a learned
// partition→owner-set map that turns repeat probes into single-hop
// direct sends. Every queryResp carries the responder's identity, trie
// path AND replica group, so a peer passively accumulates not just one
// owner per partition but the whole replica set of the regions its
// queries touch — no extra maintenance traffic. The cache is an
// accelerator, never an authority: a stale entry only costs the
// message an extra forwarding leg through normal prefix routing, and
// the repaired response replaces the entry.
//
// Each cached owner carries a health/latency EWMA fed by observed
// response round trips (and penalized when a probe to it had to be
// hedged), which the power-of-two-choices replica chooser (replica.go)
// uses as its tie-break.
//
// Invalidation:
//   - a cached owner that died is dropped from its set the moment a
//     send would use it; a set whose owners all died is dropped whole
//     (route failure fallback: the probe takes the normal routed path);
//   - learning a deeper path for a region deletes cached entries at
//     strict prefixes of it — those described a partition that has
//     since split (bootstrap, merge, late join);
//   - learning a different responder for the same path ADDS it to the
//     set (it is a sibling replica, not a contradiction);
//   - a peer whose OWN path changes clears its whole cache, since a
//     local split/merge means the trie it learned is suspect.

// routeCacheMax bounds the entries kept per peer. A full partition map
// of the largest experiment fits comfortably; the bound only guards
// against pathological workloads.
const routeCacheMax = 4096

// maxOwnersPerSet bounds the replicas tracked per cached partition.
const maxOwnersPerSet = 8

// ewmaAlpha is the weight of a fresh latency sample in the owner EWMA.
const ewmaAlpha = 0.3

// ownerInfo is one replica of a cached partition: the routing
// reference plus a smoothed round-trip estimate (simulated
// nanoseconds; 0 = no sample yet). A hedged probe doubles the estimate
// as a health penalty, so chronically slow or silent replicas sink in
// the chooser's tie-break until a fresh response rehabilitates them.
type ownerInfo struct {
	Ref
	ewma float64
}

// ownerSet is the cached replica group of one partition. owners[0] is
// the most recent responder (the "primary" that write routing uses);
// the rest are siblings learned from response replica lists or from
// other responders answering for the same path.
type ownerSet struct {
	path   keys.Key
	owners []ownerInfo
}

// live returns the indexes of owners currently alive and not in skip —
// the candidate list of the replica chooser.
func (s *ownerSet) live(net Transport, skip map[simnet.NodeID]bool) []int {
	var out []int
	for i := range s.owners {
		if skip != nil && skip[s.owners[i].ID] {
			continue
		}
		if net.Alive(s.owners[i].ID) {
			out = append(out, i)
		}
	}
	return out
}

// routeCache is the learned partition→owner-set map. It is guarded by
// the owning peer's mu (reads under RLock, writes under Lock).
type routeCache struct {
	entries  map[string]*ownerSet
	maxDepth int // longest cached path, bounds the lookup walk
}

func newRouteCache() *routeCache {
	return &routeCache{entries: make(map[string]*ownerSet)}
}

// setLocked finds the owner set of the deepest cached partition
// containing target. Longest prefix wins, so entries learned after a
// split shadow the stale pre-split entry for the keys that moved.
func (c *routeCache) setLocked(target keys.Key) (*ownerSet, bool) {
	if len(c.entries) == 0 {
		return nil, false
	}
	top := c.maxDepth
	if target.Len() < top {
		top = target.Len()
	}
	for l := top; l >= 0; l-- {
		if s, ok := c.entries[target.Prefix(l).String()]; ok {
			return s, true
		}
	}
	return nil, false
}

// lookupLocked resolves the primary cached owner for a key (the
// single-owner view kept for write routing and tests).
func (c *routeCache) lookupLocked(target keys.Key) (Ref, bool) {
	s, ok := c.setLocked(target)
	if !ok || len(s.owners) == 0 {
		return Ref{}, false
	}
	return s.owners[0].Ref, true
}

// learnLocked records that node ref answers for partition path,
// optionally with its replica siblings, returning how many
// contradicted entries were invalidated. The responder moves to the
// front of the set (it is provably alive and serving); replicas join
// behind it.
func (c *routeCache) learnLocked(path keys.Key, ref Ref, replicas ...Ref) int {
	key := path.String()
	invalidated := 0
	// Entries at strict prefixes of the learned path described a
	// partition that has since split; drop them so they stop shadowing.
	for l := path.Len() - 1; l >= 0; l-- {
		p := path.Prefix(l).String()
		if _, ok := c.entries[p]; ok {
			delete(c.entries, p)
			invalidated++
		}
	}
	// Symmetrically, entries at strict extensions described partitions
	// the learned one now covers. P-Grid paths only ever deepen today,
	// so this sweep is normally empty — it exists so a future
	// shallowing (partition coalescing) cannot leave deeper stale
	// entries shadowing the fresh owner forever, degrading the 1-hop
	// fast path while still counting as cache hits.
	for p := range c.entries {
		if len(p) > len(key) && p[:len(key)] == key {
			delete(c.entries, p)
			invalidated++
		}
	}
	set, exists := c.entries[key]
	if !exists {
		if len(c.entries) >= routeCacheMax {
			return invalidated // full: keep what we have rather than evict randomly
		}
		set = &ownerSet{path: path}
		c.entries[key] = set
		if path.Len() > c.maxDepth {
			c.maxDepth = path.Len()
		}
	}
	set.promote(Ref{ID: ref.ID, Path: path})
	for _, r := range replicas {
		set.add(r)
	}
	return invalidated
}

// promote inserts or moves ref to the front of the set, preserving its
// EWMA if already known.
func (s *ownerSet) promote(ref Ref) {
	for i, o := range s.owners {
		if o.ID == ref.ID {
			o.Ref = ref
			copy(s.owners[1:i+1], s.owners[:i])
			s.owners[0] = o
			return
		}
	}
	s.owners = append(s.owners, ownerInfo{})
	copy(s.owners[1:], s.owners)
	s.owners[0] = ownerInfo{Ref: ref}
	if len(s.owners) > maxOwnersPerSet {
		s.owners = s.owners[:maxOwnersPerSet]
	}
}

// add appends a sibling replica if not already present.
func (s *ownerSet) add(ref Ref) {
	for _, o := range s.owners {
		if o.ID == ref.ID {
			return
		}
	}
	if len(s.owners) < maxOwnersPerSet {
		s.owners = append(s.owners, ownerInfo{Ref: ref})
	}
}

// observe folds a round-trip sample (or a penalty) into one owner's
// EWMA.
func (s *ownerSet) observe(id simnet.NodeID, rtt time.Duration) {
	for i := range s.owners {
		if s.owners[i].ID == id {
			if s.owners[i].ewma == 0 {
				s.owners[i].ewma = float64(rtt)
			} else {
				s.owners[i].ewma = (1-ewmaAlpha)*s.owners[i].ewma + ewmaAlpha*float64(rtt)
			}
			return
		}
	}
}

// penalize doubles an owner's EWMA (floored at the penalty) — the
// health signal of a probe that had to be hedged or retried away from
// it.
func (s *ownerSet) penalize(id simnet.NodeID, floor time.Duration) {
	for i := range s.owners {
		if s.owners[i].ID == id {
			s.owners[i].ewma *= 2
			if s.owners[i].ewma < float64(floor) {
				s.owners[i].ewma = float64(floor)
			}
			return
		}
	}
}

// dropOwnerLocked removes one (dead) owner from a partition's set,
// deleting the set when it empties. It reports whether anything was
// removed.
func (c *routeCache) dropOwnerLocked(path keys.Key, id simnet.NodeID) bool {
	key := path.String()
	set, ok := c.entries[key]
	if !ok {
		return false
	}
	for i, o := range set.owners {
		if o.ID == id {
			set.owners = append(set.owners[:i], set.owners[i+1:]...)
			if len(set.owners) == 0 {
				delete(c.entries, key)
			}
			return true
		}
	}
	return false
}

// dropLocked removes the entry for one partition path.
func (c *routeCache) dropLocked(path keys.Key) bool {
	key := path.String()
	if _, ok := c.entries[key]; !ok {
		return false
	}
	delete(c.entries, key)
	return true
}

// clearLocked empties the cache.
func (c *routeCache) clearLocked() int {
	n := len(c.entries)
	c.entries = make(map[string]*ownerSet)
	c.maxDepth = 0
	return n
}

// --- Peer-side cache operations ----------------------------------------------

// cachedOwner resolves the primary cached responsible peer for a key,
// failing over to a live sibling replica (and dropping dead owners,
// counted) when the primary has died — the route-failure invalidation
// path. Write routing and plain envelope sends use it; the probe read
// path goes through the cached owner set + pickReplicaLocked for
// load-aware choice.
func (p *Peer) cachedOwner(target keys.Key) (Ref, bool) {
	for {
		p.mu.RLock()
		set, ok := p.cache.setLocked(target)
		var ref Ref
		if ok && len(set.owners) > 0 {
			ref = set.owners[0].Ref
		} else {
			ok = false
		}
		p.mu.RUnlock()
		if !ok {
			return Ref{}, false
		}
		if p.net.Alive(ref.ID) {
			return ref, true
		}
		p.mu.Lock()
		dropped := p.cache.dropOwnerLocked(ref.Path, ref.ID)
		p.mu.Unlock()
		if dropped {
			p.stats.cacheInvalidations.Add(1)
		} else {
			// Lost a race with another invalidation; avoid spinning.
			return Ref{}, false
		}
	}
}

// learnRouteLocked records a responder (and its replica group)
// observed in a query response; callers hold p.mu. Entries for the
// peer itself are pointless (Responsible short-circuits before the
// cache is consulted).
func (p *Peer) learnRouteLocked(path keys.Key, from simnet.NodeID, replicas []Ref) {
	if from == p.id || path.Len() == 0 {
		return
	}
	sibs := replicas[:0:0]
	for _, r := range replicas {
		if r.ID != p.id {
			sibs = append(sibs, r)
		}
	}
	if inv := p.cache.learnLocked(path, Ref{ID: from, Path: path}, sibs...); inv > 0 {
		p.stats.cacheInvalidations.Add(int64(inv))
	}
}

// observeOwnerLocked folds a response round trip into the responder's
// cached EWMA; callers hold p.mu.
func (p *Peer) observeOwnerLocked(path keys.Key, from simnet.NodeID, rtt time.Duration) {
	if set, ok := p.cache.entries[path.String()]; ok {
		set.observe(from, rtt)
	}
}

// RouteCacheLatency sums the cached per-replica latency EWMAs (and
// counts the owners carrying a sample) — the raw material the harness
// averages into cost.Stats.ProbeRTT, so probe pricing tracks the
// latency profile the replica chooser actually observes.
func (p *Peer) RouteCacheLatency() (sum time.Duration, samples int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, set := range p.cache.entries {
		for _, o := range set.owners {
			if o.ewma > 0 {
				sum += time.Duration(o.ewma)
				samples++
			}
		}
	}
	return sum, samples
}

// RouteCacheSize reports how many partition→owner-set entries the peer
// has learned (tests and the demo UI's inspection tabs).
func (p *Peer) RouteCacheSize() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cache.entries)
}

// RouteCacheOwners reports how many replicas the cache tracks for the
// partition covering target (tests).
func (p *Peer) RouteCacheOwners(target keys.Key) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	set, ok := p.cache.setLocked(target)
	if !ok {
		return 0
	}
	return len(set.owners)
}
