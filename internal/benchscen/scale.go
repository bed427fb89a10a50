package benchscen

// Scale scenarios: parameterized peer counts up to 1024, Zipf-skewed
// hot keys and hot queries, and live join/leave churn. The root
// scale_test.go runs them under plain `go test` and fails when
// routed-lookup cost stops growing logarithmically, replica spreading
// stops relieving the hot shard, or a scan under live churn loses
// exactness.

import (
	"context"
	"fmt"
	"math"
	"time"

	"unistore/internal/core"
	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/simnet"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// ScaleSizes are the peer counts the routing-curve sweep measures.
var ScaleSizes = []int{128, 256, 512, 1024}

// ScalePoint is one measured routing-curve point: the mean message and
// hop cost of a routed lookup on an N-peer overlay.
type ScalePoint struct {
	Peers         int
	MsgsPerLookup float64
	MeanHops      float64
}

// opWait bounds each synchronous lookup in simulated time.
const opWait = 5 * time.Minute

// scaleProbes is how many routed lookups each curve point averages.
const scaleProbes = 64

// overlay plans n balanced partitions × replicas peers and
// instantiates them on net, a fresh network built with seed.
func overlay(net *simnet.Network, n, replicas int, seed int64) []*pgrid.Peer {
	cfg := pgrid.DefaultConfig()
	specs := pgrid.PlanSpecs(0, n, replicas, nil, cfg, seed)
	peers, err := pgrid.BuildFromSpecs(net, specs, specs, cfg)
	if err != nil {
		panic(err)
	}
	return peers
}

// RoutingCurvePoint measures msgs-per-routed-lookup on an n-peer
// overlay. Every probe comes from a different origin, whose routing
// cache has never seen the key, so each one takes the prefix-routed
// path and the mean cost tracks the trie depth O(log n); hops through
// earlier origins may shortcut through what those learned.
func RoutingCurvePoint(n int) ScalePoint {
	net := simnet.New(simnet.Config{
		Latency: simnet.ConstantLatency(time.Millisecond), Seed: int64(n),
	})
	peers := overlay(net, n, 1, int64(n))
	ds := workload.Generate(workload.Options{Seed: 31, Persons: 40})
	load(net, ds.Triples, func(int) *pgrid.Peer { return peers[0] })
	var ks []keys.Key
	for _, tr := range ds.Triples {
		if tr.Attr == "name" {
			ks = append(ks, triple.IndexKey(tr, triple.ByAV))
		}
	}
	before := net.Stats().MessagesSent
	hops := 0
	for i := 0; i < scaleProbes; i++ {
		origin := peers[(i*257+1)%n]
		res := origin.Lookup(triple.ByAV, []keys.Key{ks[i%len(ks)]}, nil).Wait(opWait)
		hops += res.Hops
	}
	net.Settle()
	msgs := net.Stats().MessagesSent - before
	return ScalePoint{
		Peers:         n,
		MsgsPerLookup: float64(msgs) / scaleProbes,
		MeanHops:      float64(hops) / scaleProbes,
	}
}

// load writes ts[i] at version i+1 from origin(i), waits for every ack
// and settles the network.
func load(net *simnet.Network, ts []triple.Triple, origin func(i int) *pgrid.Peer) {
	hs := make([]*pgrid.Handle, len(ts))
	for i, tr := range ts {
		hs[i] = origin(i).InsertTripleAcked(tr, uint64(i+1), nil)
	}
	for _, h := range hs {
		h.Wait(0)
	}
	net.Settle()
}

// RoutingCurve measures a curve point per size.
func RoutingCurve(sizes []int) []ScalePoint {
	out := make([]ScalePoint, 0, len(sizes))
	for _, n := range sizes {
		out = append(out, RoutingCurvePoint(n))
	}
	return out
}

// CurveOK is the curve gate: the largest measured size must cost at most
// twice the log-linear extrapolation from the two smallest sizes. A
// routing regression to O(N) behaviour (linear scans, cache-less
// flooding) overshoots immediately; log growth passes with slack.
func CurveOK(pts []ScalePoint) bool {
	if len(pts) < 3 {
		return true
	}
	x0 := math.Log2(float64(pts[0].Peers))
	x1 := math.Log2(float64(pts[1].Peers))
	if x1 == x0 {
		return true
	}
	slope := (pts[1].MsgsPerLookup - pts[0].MsgsPerLookup) / (x1 - x0)
	last := pts[len(pts)-1]
	extrap := pts[0].MsgsPerLookup + slope*(math.Log2(float64(last.Peers))-x0)
	if extrap <= 0 {
		extrap = pts[1].MsgsPerLookup
	}
	return last.MsgsPerLookup <= 2*extrap
}

// hotShardProbes is the lookup count of the hot-shard scenario.
const hotShardProbes = 400

// HotShard runs a Zipf-hot query workload against an n-node overlay
// (n/2 partitions × 2 replicas) and returns the hottest peer's serve
// load and its replica group's total. The group total is the load one
// owner would carry if every probe of the partition went to it; the
// replica-balanced read path spreads it over the group.
func HotShard(n int, zipfS float64) (maxLoad, groupLoad int) {
	parts := n / 2
	net := simnet.New(simnet.Config{
		Latency: simnet.ConstantLatency(time.Millisecond), Seed: 41,
	})
	peers := overlay(net, parts, 2, 41)
	ts := workload.SkewedValues(42, 1500, zipfS)
	load(net, ts, func(i int) *pgrid.Peer { return peers[(i*13)%len(peers)] })
	// Query popularity is itself Zipf over the stored values: the pool's
	// head ranks absorb most lookups, concentrating load on their owners.
	pool := make([]string, 0, 256)
	valKey := make(map[string]keys.Key, 256)
	for _, tr := range ts[:256] {
		pool = append(pool, tr.Val.Str)
		valKey[tr.Val.Str] = triple.IndexKey(tr, triple.ByVal)
	}
	hot := workload.NewHotQueries(43, pool, zipfS)
	origin := peers[0]
	// Warm the origin's routing cache so the measured probes go direct —
	// the regime where replica spreading matters.
	for _, val := range pool[:32] {
		origin.Lookup(triple.ByVal, []keys.Key{valKey[val]}, nil).Wait(opWait)
	}
	net.Settle()
	before := make([]int, len(peers))
	for i, p := range peers {
		before[i] = p.Stats().Delivered
	}
	for i := 0; i < hotShardProbes; i++ {
		origin.Lookup(triple.ByVal, []keys.Key{valKey[hot.Next()]}, nil).Wait(opWait)
	}
	net.Settle()
	groups := make(map[string]int)
	hottest := ""
	for i, p := range peers {
		load := p.Stats().Delivered - before[i]
		groups[p.Path().String()] += load
		if load > maxLoad {
			maxLoad, hottest = load, p.Path().String()
		}
	}
	return maxLoad, groups[hottest]
}

// ChurnScaleResult is the live join/leave churn scenario outcome: a
// paged scan runs to completion while a replica group splits and
// another merges mid-flight, and the row set must equal the loaded
// dataset exactly.
type ChurnScaleResult struct {
	Peers         int
	Rows          int
	Expected      int
	Exact         bool
	Invalidations int
}

// ChurnScale builds an n-node cluster (n/2 partitions × 2 replicas),
// opens a paged scan, performs a live split after the first rows and a
// live merge further in, and checks the completed scan against the
// dataset's ground truth. Routing caches must self-repair (observed as
// invalidation counts) without costing correctness.
func ChurnScale(n int) ChurnScaleResult {
	c := core.NewCluster(core.Config{
		Peers: n / 2, Replicas: 2, Seed: 61,
		PageSize: ScanPageSize,
	})
	ds := workload.Generate(workload.Options{Seed: 62, Persons: 120})
	c.BulkInsert(ds.Triples...)
	// Warm routing caches so the churn has learned state to invalidate.
	if _, err := c.QueryFrom(0, TopKQuery); err != nil {
		panic(fmt.Sprintf("benchscen: churn scale warmup: %v", err))
	}
	c.Net().Settle()
	expected := map[string]int{}
	for _, tr := range ds.Triples {
		if tr.Attr == "name" {
			expected[tr.Val.Str]++
		}
	}
	stream, err := c.QueryStream(context.Background(), ScanQuery, core.From(0))
	if err != nil {
		panic(fmt.Sprintf("benchscen: churn scale: %v", err))
	}
	want := 0
	for _, n := range expected {
		want += n
	}
	got := map[string]int{}
	rows := 0
	pull := func(k int) bool {
		for i := 0; i < k; i++ {
			b, ok := stream.Next()
			if !ok {
				return false
			}
			got[b["n"].Str]++
			rows++
		}
		return true
	}
	if pull(5) {
		// A new peer joins peer 1's group and the enlarged group splits
		// live — mid-scan, with pages outstanding.
		if _, err := c.JoinPeer(1, nil); err != nil {
			panic(fmt.Sprintf("benchscen: churn scale join: %v", err))
		}
		if err := c.SplitGroup(1); err != nil {
			panic(fmt.Sprintf("benchscen: churn scale split: %v", err))
		}
		if pull(5) {
			// And an unrelated group at the far end of the key space
			// merges into its sibling.
			if err := c.MergeGroup(c.Size() - 2); err != nil {
				panic(fmt.Sprintf("benchscen: churn scale merge: %v", err))
			}
		}
	}
	for pull(64) {
	}
	stream.Close()
	inval := 0
	for _, p := range c.Peers() {
		inval += p.Stats().RouteCacheInvalidations
	}
	exact := len(got) == len(expected)
	if exact {
		for k, n := range expected {
			if got[k] != n {
				exact = false
				break
			}
		}
	}
	return ChurnScaleResult{
		Peers: n, Rows: rows, Expected: want,
		Exact: exact, Invalidations: inval,
	}
}
