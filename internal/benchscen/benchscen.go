// Package benchscen defines the simulated-measurement scenarios in ONE
// place: the root msgbudget_test.go / scale_test.go gates (budgets and
// inequalities measured on the shipped configuration, run by plain
// `go test`), the churn and aggregation equivalence suites, and the
// report-only bench_test.go benchmarks all build their clusters and
// plans here, so every consumer measures the same workload by
// construction — a seed or dataset tweak cannot silently drift one
// copy away from the others.
package benchscen

import (
	"context"
	"fmt"

	"unistore/internal/algebra"
	"unistore/internal/core"
	"unistore/internal/keys"
	"unistore/internal/optimizer"
	"unistore/internal/physical"
	"unistore/internal/store"
	"unistore/internal/triple"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

// Peers is the simnet size every scenario runs on.
const Peers = 64

// The scenario queries.
const (
	TopKQuery      = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`
	IndexJoinQuery = `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`
	ScanQuery      = `SELECT ?n WHERE {(?p,'name',?n)}`
	// ScanPageSize is the page bound of the paged full-scan scenario.
	ScanPageSize = 8
	// StarJoinQuery is a three-pattern star over IndexJoin's dataset:
	// an exact lookup of a unique value binds the one subject the
	// other two patterns join on.
	StarJoinQuery = `SELECT ?n,?a WHERE {(?p,'email','p7@example.org') (?p,'name',?n) (?p,'age',?a)}`
)

// TopK builds the ranked top-5 scenario: deterministic 64-peer
// cluster, 300 persons loaded.
func TopK() *core.Cluster {
	c := core.NewCluster(core.Config{
		Peers: Peers, Seed: 12,
	})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 300})
	c.BulkInsert(ds.Triples...)
	return c
}

// IndexJoin builds the DHT index-join scenario: a trie adapted to the
// dataset (the load-balanced production configuration — the
// order-preserving hash would otherwise cluster every probe key into
// one or two partitions and overstate the cache win), 60 persons
// loaded. The first run on a fresh cluster is the cold baseline: every
// probe pays the routed path while the caches learn the partition map.
// The dataset is returned for reference-equivalence checks.
func IndexJoin() (*core.Cluster, []triple.Triple) {
	ds := workload.Generate(workload.Options{Seed: 9, Persons: 60})
	var samples []keys.Key
	for _, tr := range ds.Triples {
		for _, kind := range triple.AllIndexKinds {
			samples = append(samples, triple.IndexKey(tr, kind))
		}
	}
	c := core.NewCluster(core.Config{
		Peers: Peers, Seed: 8, AdaptiveSamples: samples,
	})
	c.BulkInsert(ds.Triples...)
	return c, ds.Triples
}

// IndexJoinPlan compiles the two-pattern join with the second step
// pinned to the OID index: each person bound by the name scan is
// resolved with one exact OID probe — the DHT index join, whose keys
// scatter over the whole partition space.
func IndexJoinPlan() (*physical.Plan, error) {
	q, err := vql.ParseQuery(IndexJoinQuery)
	if err != nil {
		return nil, fmt.Errorf("benchscen: %w", err)
	}
	plan, err := physical.CompileQuery(q)
	if err != nil {
		return nil, fmt.Errorf("benchscen: %w", err)
	}
	plan.Steps[1].Strat = physical.StratOIDLookup
	return plan, nil
}

// StarJoinPlan compiles StarJoinQuery with both subject-bound steps
// pinned to strat: StratOIDLookup probes each bound subject, while
// StratAVRange ships the plan to the attribute's region and scans it,
// as the default optimizer does for a region step with at most
// ShipThreshold bindings upstream.
func StarJoinPlan(strat physical.AccessStrategy) (*physical.Plan, error) {
	plan, err := physical.CompileQuery(mustParse(StarJoinQuery))
	if err != nil {
		return nil, fmt.Errorf("benchscen: %w", err)
	}
	for i := 1; i < len(plan.Steps); i++ {
		plan.Steps[i].Strat = strat
		plan.Steps[i].Ship = strat == physical.StratAVRange
	}
	return plan, nil
}

// ChurnPeers/ChurnReplicas shape the churn scenario's overlay: 32
// partitions × 2 replicas = the same 64-node simnet the other
// scenarios use, but with every partition held twice.
const (
	ChurnPeers    = 32
	ChurnReplicas = 2
	// ChurnDeadFraction of the nodes are killed before the measured
	// query (one replica per partition at most, so data stays
	// reachable — the paper's churn regime, not a data-loss one).
	ChurnDeadFraction = 0.10
)

// ChurnTopK builds the churn scenario cluster: a replicated 64-node
// simnet (deterministic), 300 persons loaded, routing caches warmed by
// one throwaway ranked query from peer 0, so failover has sibling sets
// to work with.
func ChurnTopK() *core.Cluster {
	c := core.NewCluster(core.Config{
		Peers: ChurnPeers, Replicas: ChurnReplicas, Seed: 21,
		PageSize: ScanPageSize,
	})
	ds := workload.Generate(workload.Options{Seed: 22, Persons: 300})
	c.BulkInsert(ds.Triples...)
	// Warm the caches (and the replica sets they learn) from the peer
	// the measured query will run on.
	if _, err := c.QueryFrom(0, TopKQuery); err != nil {
		panic(fmt.Sprintf("benchscen: churn warmup: %v", err))
	}
	c.Net().Settle()
	return c
}

// ChurnResult is one measured churn run.
type ChurnResult struct {
	Rows     int
	Dead     int
	Msgs     int
	SimMS    float64
	TtfrMS   float64
	Bindings []algebra.Binding
}

// ChurnTopKRun executes the measured ranked top-k on a ChurnTopK
// cluster with 10% of the nodes killed MID-FLIGHT (see ChurnRun).
func ChurnTopKRun(c *core.Cluster) (ChurnResult, error) {
	plan, err := physical.CompileQuery(mustParse(TopKQuery))
	if err != nil {
		return ChurnResult{}, err
	}
	return ChurnRun(c, plan)
}

// ChurnRun executes one compiled plan with 10% of the nodes killed
// MID-FLIGHT: the plan is started, and the nodes its first-hop branch
// envelopes are in the air toward (visible as network backlog) are
// killed before any is delivered — their branch shares are genuinely
// lost, which is the churn regime replicas exist for. At most one
// replica per partition dies and never the origin, so every row stays
// reachable. Reads recover by hedging pulls and re-showering the
// missing partitions through live siblings — aggregated scans included,
// whose per-partition states the claim dedup keeps exactly-once —
// instead of waiting out the overlay's operation deadline.
func ChurnRun(c *core.Cluster, plan *physical.Plan) (ChurnResult, error) {
	net := c.Net()
	before := net.Stats()
	ex := c.Engine(0).Open(context.Background(), plan).Exec()
	// The first-hop branch envelopes are now queued; kill their targets.
	want := int(float64(c.Size()) * ChurnDeadFraction)
	origin := c.Peers()[0].ID()
	byPath := make(map[string]bool)
	dead := 0
	kill := func(i int) {
		p := c.Peers()[i]
		if p.ID() == origin || !net.Alive(p.ID()) {
			return
		}
		if path := p.Path().String(); !byPath[path] {
			byPath[path] = true
			c.Kill(i)
			dead++
		}
	}
	for i := 0; i < c.Size() && dead < want; i++ {
		if net.Load(c.Peers()[i].ID()) > 0 {
			kill(i)
		}
	}
	for i := 0; i < c.Size() && dead < want; i++ {
		kill(i)
	}
	ex.Wait()
	net.Settle()
	after := net.Stats()
	return ChurnResult{
		Rows:     len(ex.Result()),
		Dead:     dead,
		Msgs:     after.MessagesSent - before.MessagesSent,
		SimMS:    float64(ex.Elapsed().Microseconds()) / 1000,
		TtfrMS:   float64(ex.TimeToFirst().Microseconds()) / 1000,
		Bindings: ex.Result(),
	}, nil
}

func mustParse(src string) *vql.Query {
	q, err := vql.ParseQuery(src)
	if err != nil {
		panic(fmt.Sprintf("benchscen: %v", err))
	}
	return q
}

// GroupByAggQuery is the in-network aggregation scenario: venues with
// their publication counts — many matching rows folding into few
// groups, the shape peer-side partial aggregation exists for.
const GroupByAggQuery = `SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c`

// aggOptions forces one aggregation strategy while keeping the rest of
// the optimizer at its defaults.
func aggOptions(pushdown bool) optimizer.Options {
	opt := optimizer.DefaultOptions()
	if pushdown {
		opt.Agg = optimizer.AggPushdown
	} else {
		opt.Agg = optimizer.AggCentralized
	}
	return opt
}

// GroupByAgg builds the aggregation scenario cluster: deterministic
// 64-peer simnet, paged responses, 300 persons (≈600
// publication rows over ~40 venues), with the strategy pinned to
// pushdown or the centralized fallback. The dataset is returned for
// reference-equivalence checks.
func GroupByAgg(pushdown bool) (*core.Cluster, []triple.Triple) {
	c := core.NewCluster(core.Config{
		Peers: Peers, Seed: 17, PageSize: ScanPageSize,
		Optimizer: aggOptions(pushdown),
	})
	ds := workload.Generate(workload.Options{Seed: 18, Persons: 300})
	c.BulkInsert(ds.Triples...)
	return c, ds.Triples
}

// GroupByAggChurn is the replicated variant of the aggregation
// scenario for ChurnRun: ChurnPeers×ChurnReplicas nodes, caches warmed
// from peer 0 so failover has sibling sets to work with.
func GroupByAggChurn(pushdown bool) (*core.Cluster, []triple.Triple) {
	c := core.NewCluster(core.Config{
		Peers: ChurnPeers, Replicas: ChurnReplicas, Seed: 19,
		PageSize:  ScanPageSize,
		Optimizer: aggOptions(pushdown),
	})
	ds := workload.Generate(workload.Options{Seed: 18, Persons: 300})
	c.BulkInsert(ds.Triples...)
	if _, err := c.QueryFrom(0, GroupByAggQuery); err != nil {
		panic(fmt.Sprintf("benchscen: group-by churn warmup: %v", err))
	}
	c.Net().Settle()
	return c, ds.Triples
}

// GroupByAggPlan compiles the aggregation scenario query with the
// strategy pinned.
func GroupByAggPlan(pushdown bool) (*physical.Plan, error) {
	plan, err := physical.CompileQuery(mustParse(GroupByAggQuery))
	if err != nil {
		return nil, err
	}
	plan.Tail.AggPushdown = pushdown && physical.AggPushdownable(plan)
	return plan, nil
}

// Scan builds the paged full-scan scenario (300 persons, page size
// ScanPageSize) and returns the dataset for the page-bound
// computation.
func Scan() (*core.Cluster, []triple.Triple) {
	c := core.NewCluster(core.Config{
		Peers: Peers, Seed: 14, PageSize: ScanPageSize,
	})
	ds := workload.Generate(workload.Options{Seed: 15, Persons: 300})
	c.BulkInsert(ds.Triples...)
	return c, ds.Triples
}

// PageBound is the byte ceiling one paged range response may reach for
// the given dataset: the simnet header estimate, the response envelope
// with continuation token, and pageSize entries of the largest entry
// the dataset can produce.
func PageBound(ts []triple.Triple, pageSize int) int {
	maxEntry := 0
	for _, tr := range ts {
		for _, kind := range triple.AllIndexKinds {
			e := store.Entry{Kind: kind, Key: triple.IndexKey(tr, kind), Triple: tr}
			if w := e.WireSize(); w > maxEntry {
				maxEntry = w
			}
		}
	}
	const headerAndEnvelope = 64 + 40 + 96 // simnet header + resp base + continuation
	return headerAndEnvelope + pageSize*maxEntry
}
