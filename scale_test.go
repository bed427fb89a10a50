// Scale-harness equivalence suite: seeded scenarios over every axis of
// the scale matrix — peer count, replica count, page size, Zipf skew,
// and live churn schedule (joins that trigger splits, group merges) —
// where the distributed result must equal the in-memory reference
// executor even when the churn lands between the pulls of an open
// stream. Plus the 1024-peer ranked-query bound (logarithmic message
// budget and completion far under the overlay's operation deadline)
// and the scale gates over internal/benchscen's scenarios: the
// routed-lookup cost curve at 128..1024 peers stays logarithmic,
// replica spreading relieves the Zipf hot shard, and a paged scan
// under live join + split + merge stays exact. Their measured values
// are the t.Logf lines of `go test -v -run Scale .`.
package unistore_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"unistore"
	"unistore/internal/algebra"
	"unistore/internal/benchscen"
	"unistore/internal/workload"
)

// eqScale is one seeded scenario of the equivalence matrix.
type eqScale struct {
	parts    int     // key-space partitions
	replicas int     // replica-group size
	pageSize int     // paged-scan bound
	zipfS    float64 // dataset skew
	churn    string  // "", "join-split", "merge", "both"
	seed     int64
}

func (cs eqScale) name() string {
	churn := cs.churn
	if churn == "" {
		churn = "steady"
	}
	return fmt.Sprintf("n%d_r%d_pg%d_s%.1f_%s_seed%d",
		cs.parts, cs.replicas, cs.pageSize, cs.zipfS, churn, cs.seed)
}

// eqScaleSmall always runs — the deterministic tier-1 slice.
var eqScaleSmall = []eqScale{
	{parts: 16, replicas: 1, pageSize: 4, zipfS: 0.8, churn: "", seed: 101},
	{parts: 16, replicas: 2, pageSize: 4, zipfS: 1.1, churn: "join-split", seed: 102},
	{parts: 32, replicas: 2, pageSize: 8, zipfS: 1.1, churn: "merge", seed: 103},
	{parts: 32, replicas: 1, pageSize: 4, zipfS: 1.4, churn: "join-split", seed: 104},
	{parts: 16, replicas: 2, pageSize: 2, zipfS: 0.9, churn: "both", seed: 105},
}

// eqScaleLarge widens the matrix when the binary runs under -race —
// CI's race job sweeps it, tier-1 stays fast.
var eqScaleLarge = []eqScale{
	{parts: 64, replicas: 2, pageSize: 4, zipfS: 1.1, churn: "both", seed: 201},
	{parts: 64, replicas: 1, pageSize: 8, zipfS: 0.8, churn: "merge", seed: 202},
	{parts: 48, replicas: 3, pageSize: 4, zipfS: 1.2, churn: "join-split", seed: 203},
	{parts: 32, replicas: 2, pageSize: 2, zipfS: 1.4, churn: "both", seed: 204},
}

// mergeIdx picks a peer whose replica group can retire: a non-root
// partition that does not contain the query origin (peer 0).
func mergeIdx(c *unistore.Cluster) int {
	ps := c.Peers()
	for i := len(ps) - 1; i > 0; i-- {
		if !ps[i].Path().Equal(ps[0].Path()) && ps[i].Path().Len() > 0 {
			return i
		}
	}
	return -1
}

func runEqScale(t *testing.T, cs eqScale) {
	c := unistore.New(unistore.Config{
		Peers: cs.parts, Replicas: cs.replicas, Seed: cs.seed,
		PageSize: cs.pageSize,
	})
	ds := workload.Generate(workload.Options{Seed: cs.seed + 1, Persons: 60, ZipfS: cs.zipfS})
	c.BulkInsert(ds.Triples...)
	c.Net().Settle()

	// A paged scan streams while the overlay churns between pulls.
	want := aggCanon(aggOracle(t, benchscen.ScanQuery, ds.Triples))
	st, err := c.QueryStream(context.Background(), benchscen.ScanQuery, unistore.From(0))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer st.Close()
	var got []algebra.Binding
	pull := func(k int) bool {
		for i := 0; i < k; i++ {
			row, ok := st.Next()
			if !ok {
				return false
			}
			got = append(got, row)
		}
		return true
	}
	pull(3)
	if cs.churn == "join-split" || cs.churn == "both" {
		if _, err := c.JoinPeer(1, nil); err != nil {
			t.Fatalf("live join: %v", err)
		}
		if err := c.SplitGroup(1); err != nil {
			t.Fatalf("live split: %v", err)
		}
		pull(3)
	}
	if cs.churn == "merge" || cs.churn == "both" {
		idx := mergeIdx(c)
		if idx < 0 {
			t.Fatal("no mergeable partition")
		}
		if err := c.MergeGroup(idx); err != nil {
			t.Fatalf("live merge: %v", err)
		}
	}
	for pull(64) {
	}
	if diff := aggCanon(got); !reflect.DeepEqual(diff, want) {
		t.Fatalf("scan diverged from reference across churn %q:\ngot  %d rows %v\nwant %d rows %v",
			cs.churn, len(diff), diff, len(want), want)
	}

	// The post-churn overlay must still answer aggregates exactly.
	res, err := c.QueryFrom(0, benchscen.GroupByAggQuery)
	if err != nil {
		t.Fatalf("post-churn aggregate: %v", err)
	}
	want2 := aggCanon(aggOracle(t, benchscen.GroupByAggQuery, ds.Triples))
	if got2 := aggCanon(res.Bindings); !reflect.DeepEqual(got2, want2) {
		t.Fatalf("post-churn aggregate diverged:\ngot  %v\nwant %v", got2, want2)
	}
}

func TestScaleEquivalenceMatrix(t *testing.T) {
	cases := eqScaleSmall
	if raceEnabled {
		cases = append(append([]eqScale{}, eqScaleSmall...), eqScaleLarge...)
	}
	for _, cs := range cases {
		t.Run(cs.name(), func(t *testing.T) { runEqScale(t, cs) })
	}
}

// ranked1024MsgBudget bounds a cold ranked top-k on a 1024-peer
// overlay. Measured 7 messages: one paged shower over the name
// region, which sits on one partition, stopped after its first page.
// The budget is a logarithmic-style bound, so a super-logarithmic
// regression fails while scheduling jitter passes.
const ranked1024MsgBudget = 75

// TestRanked1024PeersWithinBudget: the flagship scale point — a ranked
// query on 1024 peers must return the exact reference answer within a
// logarithmic-style message budget and complete in simulated seconds,
// far under the overlay's 2-minute operation deadline (no stall, no
// deadline rescue).
func TestRanked1024PeersWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-peer overlay build")
	}
	c := unistore.New(unistore.Config{
		Peers: 1024, Seed: 71, PageSize: benchscen.ScanPageSize,
	})
	ds := workload.Generate(workload.Options{Seed: 72, Persons: 150})
	c.BulkInsert(ds.Triples...)
	c.Net().Settle()

	res, err := c.QueryFrom(0, benchscen.TopKQuery)
	if err != nil {
		t.Fatalf("ranked query: %v", err)
	}
	want := aggCanon(aggOracle(t, benchscen.TopKQuery, ds.Triples))
	if got := aggCanon(res.Bindings); !reflect.DeepEqual(got, want) {
		t.Fatalf("ranked result diverged at 1024 peers:\ngot  %v\nwant %v", got, want)
	}
	if res.Messages > ranked1024MsgBudget {
		t.Errorf("ranked query cost %d messages at 1024 peers, budget %d",
			res.Messages, ranked1024MsgBudget)
	}
	if res.Elapsed > 15*time.Second {
		t.Errorf("ranked query took %v simulated at 1024 peers — approaching the operation deadline", res.Elapsed)
	}
	t.Logf("1024 peers: %d msgs, %d hops, %v simulated", res.Messages, res.Hops, res.Elapsed)
}

// TestScaleRoutingCurveLogarithmic: the mean cost of a routed lookup
// (each from a fresh origin) at 128/256/512/1024 peers must stay inside
// twice the log-linear extrapolation from the two smallest sizes —
// O(log N) routing passes with slack, a regression to linear scans or
// flooding overshoots immediately.
func TestScaleRoutingCurveLogarithmic(t *testing.T) {
	curve := benchscen.RoutingCurve(benchscen.ScaleSizes)
	for _, p := range curve {
		t.Logf("%4d peers: %.2f msgs/lookup, %.2f hops", p.Peers, p.MsgsPerLookup, p.MeanHops)
	}
	if !benchscen.CurveOK(curve) {
		last := curve[len(curve)-1]
		t.Errorf("%d-peer lookups cost %.2f msgs, above 2x the log extrapolation from %d/%d peers (%.2f/%.2f)",
			last.Peers, last.MsgsPerLookup, curve[0].Peers, curve[1].Peers,
			curve[0].MsgsPerLookup, curve[1].MsgsPerLookup)
	}
}

// TestScaleHotShardSpreading: under Zipf-hot lookups on 1024 nodes,
// replica-balanced reads must leave the hottest peer with at most 60%
// of its replica group's load — the load one owner would carry if
// every read of the partition went to it.
func TestScaleHotShardSpreading(t *testing.T) {
	const peers, zipfS = 1024, 1.1
	hottest, group := benchscen.HotShard(peers, zipfS)
	if 10*hottest > 6*group {
		t.Errorf("hottest peer served %d of its replica group's %d reads — replica spreading must keep it at 60%% or less", hottest, group)
	}
	t.Logf("hot shard @%d peers: max load %d of its replica group's %d", peers, hottest, group)
}

// TestScaleScanExactUnderLiveChurn: a paged scan on 128 nodes with a
// join + split after the first rows and a merge further in must
// return every row exactly once, and the churn must have invalidated
// learned routing-cache entries (otherwise it missed the warm state).
func TestScaleScanExactUnderLiveChurn(t *testing.T) {
	r := benchscen.ChurnScale(benchscen.ScaleSizes[0])
	if !r.Exact {
		t.Errorf("scan under live join/split/merge lost exactness: %d rows, want %d", r.Rows, r.Expected)
	}
	if r.Invalidations == 0 {
		t.Error("live churn invalidated no routing-cache entries")
	}
	t.Logf("churn @%d peers: %d/%d rows, %d cache invalidations", r.Peers, r.Rows, r.Expected, r.Invalidations)
}
