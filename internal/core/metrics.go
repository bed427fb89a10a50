package core

// Unified metrics plumbing. Peers, the network and the WAL each keep
// their own counters; the registry mirrors them under stable dotted
// names at snapshot time via OnCollect collectors, so the hot paths
// never touch the registry. Every host registers the same peer
// collector (newCluster) and its constructor adds one for its
// transport — /metrics looks identical on simnet and on real TCP.

import (
	"unistore/internal/pgrid"
	"unistore/internal/trace"
)

// setCounter forces a monotonic counter to an absolute value sampled
// from an external source of truth. Collectors run serialized under
// the registry's snapshot, so the read-modify-write cannot race.
func setCounter(r *trace.Registry, name string, v int64) {
	c := r.Counter(name)
	if d := v - c.Value(); d != 0 {
		c.Add(d)
	}
}

// registerPeerMetrics installs a collector aggregating the hosted
// peers' overlay counters. The callback re-resolves the peer slice
// each snapshot, so joins and rejoins are picked up.
func registerPeerMetrics(reg *trace.Registry, peers func() []*pgrid.Peer) {
	reg.OnCollect(func(r *trace.Registry) {
		var a pgrid.PeerStats
		for _, p := range peers() {
			st := p.Stats()
			a.Forwarded += st.Forwarded
			a.Delivered += st.Delivered
			a.RangeServed += st.RangeServed
			a.RouteFailures += st.RouteFailures
			a.GossipApplied += st.GossipApplied
			a.GossipSuppressed += st.GossipSuppressed
			a.ExchangesRun += st.ExchangesRun
			a.RouteCacheHits += st.RouteCacheHits
			a.RouteCacheMisses += st.RouteCacheMisses
			a.RouteCacheInvalidations += st.RouteCacheInvalidations
			a.RouteCacheFwdHits += st.RouteCacheFwdHits
			a.PagesServed += st.PagesServed
			a.ProbeGroups += st.ProbeGroups
			a.ProbeRetries += st.ProbeRetries
			a.ScanRetries += st.ScanRetries
			a.PagePullHedges += st.PagePullHedges
			a.WriteRetries += st.WriteRetries
			a.DigestRounds += st.DigestRounds
			a.DigestPulls += st.DigestPulls
			a.FlowBulkSends += st.FlowBulkSends
			a.FlowStalls += st.FlowStalls
		}
		setCounter(r, "pgrid.forwarded", int64(a.Forwarded))
		setCounter(r, "pgrid.delivered", int64(a.Delivered))
		setCounter(r, "pgrid.range_served", int64(a.RangeServed))
		setCounter(r, "pgrid.route_failures", int64(a.RouteFailures))
		setCounter(r, "pgrid.gossip.applied", int64(a.GossipApplied))
		setCounter(r, "pgrid.gossip.suppressed", int64(a.GossipSuppressed))
		setCounter(r, "pgrid.antientropy.exchanges", int64(a.ExchangesRun))
		setCounter(r, "pgrid.route_cache.hits", int64(a.RouteCacheHits))
		setCounter(r, "pgrid.route_cache.misses", int64(a.RouteCacheMisses))
		setCounter(r, "pgrid.route_cache.invalidations", int64(a.RouteCacheInvalidations))
		setCounter(r, "pgrid.route_cache.fwd_hits", int64(a.RouteCacheFwdHits))
		setCounter(r, "pgrid.pages_served", int64(a.PagesServed))
		setCounter(r, "pgrid.probe.groups", int64(a.ProbeGroups))
		setCounter(r, "pgrid.probe.retries", int64(a.ProbeRetries))
		setCounter(r, "pgrid.scan.retries", int64(a.ScanRetries))
		setCounter(r, "pgrid.page_pull.hedges", int64(a.PagePullHedges))
		setCounter(r, "pgrid.write.retries", int64(a.WriteRetries))
		setCounter(r, "pgrid.digest.rounds", int64(a.DigestRounds))
		setCounter(r, "pgrid.digest.pulls", int64(a.DigestPulls))
		setCounter(r, "pgrid.flow.bulk_sends", int64(a.FlowBulkSends))
		setCounter(r, "pgrid.flow.stalls", int64(a.FlowStalls))
		if n := a.RouteCacheHits + a.RouteCacheMisses; n > 0 {
			r.Gauge("pgrid.route_cache.hit_rate").Set(float64(a.RouteCacheHits) / float64(n))
		}
		if a.FlowBulkSends > 0 {
			p := float64(a.FlowStalls) / float64(a.FlowBulkSends)
			if p > 1 {
				p = 1
			}
			r.Gauge("pgrid.flow.pressure").Set(p)
		}
	})
}
