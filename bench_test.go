// Benchmarks regenerating every experiment E1–E12 of
// internal/experiments (the record of the reproduction; cmd/unibench
// prints its tables — no EXPERIMENTS.md is generated yet, see ROADMAP
// item H). Each benchmark drives that harness at a reduced
// scale and reports the experiment's headline quantity as a custom
// metric, so `go test -bench=.` provides the whole reproduction in one
// run. Wall-clock ns/op is the simulator's cost, not the system's —
// the simulated metrics are the results.
package unistore_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"unistore"
	"unistore/internal/benchscen"
	"unistore/internal/experiments"
	"unistore/internal/pgrid"
	"unistore/internal/trace"
	"unistore/internal/workload"
)

// benchScale keeps -bench runs fast; cmd/unibench runs scale 1.0.
const benchScale = experiments.Scale(0.25)

// cell parses a numeric table cell.
func cell(tb *trace.Series, row, col int) float64 {
	r := tb.Rows()
	if row < 0 {
		row = len(r) + row
	}
	v, _ := strconv.ParseFloat(strings.TrimSuffix(r[row][col], "s"), 64)
	return v
}

func BenchmarkE1TriplePlacement(b *testing.B) {
	var entries float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E1TriplePlacement()
		for _, row := range tab.Rows() {
			if strings.HasPrefix(row[0], "TOTAL") {
				entries, _ = strconv.ParseFloat(row[1], 64)
			}
		}
	}
	b.ReportMetric(entries, "entries")
}

func BenchmarkE2RoutingHops(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E2RoutingHops(benchScale)
		avg = cell(tab, -1, 1) // largest network's average hops
	}
	b.ReportMetric(avg, "avg-hops-largest-n")
}

func BenchmarkE3QueryLatency(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E3QueryLatency(benchScale)
		rows := tab.Rows()
		d, err := time.ParseDuration(rows[len(rows)-1][1])
		if err == nil {
			ms = float64(d.Milliseconds())
		}
	}
	b.ReportMetric(ms, "sim-ms-largest-n")
}

func BenchmarkE4PlanVariants(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E4PlanVariants(benchScale)
		lo, hi := 1e18, 0.0
		for r := range tab.Rows() {
			m := cell(tab, r, 1)
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		spread = hi / lo
	}
	b.ReportMetric(spread, "worst/best-msgs")
}

func BenchmarkE5Similarity(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E5Similarity(benchScale)
		ratio = cell(tab, -1, 2) / cell(tab, -1, 1) // broadcast / qgram
	}
	b.ReportMetric(ratio, "bcast/qgram-msgs")
}

func BenchmarkE6LoadBalance(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E6LoadBalance(benchScale)
		improvement = cell(tab, 0, 1) / cell(tab, 1, 1) // balanced max / adaptive max
	}
	b.ReportMetric(improvement, "maxload-improvement")
}

func BenchmarkE7Skyline(b *testing.B) {
	var size float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E7Skyline(benchScale)
		size = cell(tab, -1, 1)
	}
	b.ReportMetric(size, "skyline-size")
}

func BenchmarkE8Updates(b *testing.B) {
	var repaired float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E8Updates(benchScale)
		repaired = cell(tab, -1, 2) // replicas fresh after anti-entropy, worst loss
	}
	b.ReportMetric(repaired, "replicas-converged")
}

func BenchmarkE9RangeVsChord(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E9RangeVsChord(benchScale)
		ratio = cell(tab, -1, 3) / cell(tab, -1, 2) // chord / pgrid messages
	}
	b.ReportMetric(ratio, "chord/pgrid-msgs")
}

func BenchmarkE10Mappings(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E10Mappings(benchScale)
		gain = cell(tab, 1, 1) / cell(tab, 0, 1) // recall gain
	}
	b.ReportMetric(gain, "recall-gain")
}

func BenchmarkE11Merge(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E11Merge(benchScale)
		msgs = cell(tab, 0, 1)
	}
	b.ReportMetric(msgs, "merge-msgs")
}

func BenchmarkE12PaperQuery(b *testing.B) {
	var msgs float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E12PaperQuery(benchScale)
		msgs = cell(tab, 0, 2)
	}
	b.ReportMetric(msgs, "query-msgs")
}

// --- Public-API micro-benchmarks ---------------------------------------------

func BenchmarkInsertTuple(b *testing.B) {
	c := unistore.New(unistore.Config{Peers: 32, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InsertTuple(unistore.NewTuple(unistore.GenerateOID("b")).
			Set("name", unistore.S("bench person")).
			Set("age", unistore.N(float64(20+i%60))))
	}
}

func BenchmarkExactLookupQuery(b *testing.B) {
	c := unistore.New(unistore.Config{Peers: 64, Seed: 2})
	ds := workload.Generate(workload.Options{Seed: 3, Persons: 200})
	c.Insert(ds.Triples...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT ?p WHERE {(?p,'email','p7@example.org')}`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoPatternJoinQuery(b *testing.B) {
	c := unistore.New(unistore.Config{Peers: 64, Seed: 4})
	ds := workload.Generate(workload.Options{Seed: 5, Persons: 200})
	c.Insert(ds.Triples...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent-execution benchmarks -----------------------------------------
//
// These measure wall clock, not simulated time: the concurrent simnet
// paces deliveries at simulated/TimeDilation, so a query's ns/op
// reflects how its DHT round trips overlap. The Sequential variants
// bound the fan-out window to 1 (probe, wait, probe, ...); the
// Parallel variants fan out the whole probe set at once. Same 64-peer
// overlay, same data, same queries.

// lookupBenchCluster builds a 64-peer concurrent cluster loaded with
// 60 persons; the self-join query's second step grounds its value
// variable with the 60 names bound by the first, resolving them as 60
// exact A#v probes — the multi-key DHT index join.
func lookupBenchCluster(b *testing.B, parallelism int) *unistore.Cluster {
	b.Helper()
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 8,
		Concurrent:       true,
		TimeDilation:     20, // 1ms simulated link = 50µs wall
		ProbeParallelism: parallelism,
	})
	ds := workload.Generate(workload.Options{Seed: 9, Persons: 60})
	c.BulkInsert(ds.Triples...)
	return c
}

const multiLookupQuery = `SELECT ?p,?q WHERE {(?p,'name',?n) (?q,'name',?n)}`

func benchMultiLookup(b *testing.B, parallelism int) {
	c := lookupBenchCluster(b, parallelism)
	defer c.Close()
	b.ResetTimer()
	results := 0
	for i := 0; i < b.N; i++ {
		res, err := c.QueryFrom(i%c.Size(), multiLookupQuery)
		if err != nil {
			b.Fatal(err)
		}
		results = len(res.Bindings)
	}
	b.ReportMetric(float64(results), "results")
}

func BenchmarkMultiLookupSequential(b *testing.B) { benchMultiLookup(b, 1) }
func BenchmarkMultiLookupParallel(b *testing.B)   { benchMultiLookup(b, 0) }

// Insert throughput: per-triple Insert settles the network after every
// call (round trips serialize), while BulkInsert issues the whole
// batch before one quiescence (round trips overlap).
const insertBatch = 128

func benchInsert(b *testing.B, bulk bool) {
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 10, Concurrent: true, TimeDilation: 200,
	})
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := make([]unistore.Triple, 0, insertBatch)
		for j := 0; j < insertBatch; j++ {
			oid := unistore.GenerateOID("bench")
			ts = append(ts, unistore.T(oid, "name", "bulk bench"))
		}
		if bulk {
			c.BulkInsert(ts...)
		} else {
			for _, tr := range ts {
				c.Insert(tr)
			}
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*insertBatch)/elapsed.Seconds(), "triples/s")
	}
}

func BenchmarkInsertSequential(b *testing.B) { benchInsert(b, false) }
func BenchmarkInsertBulk(b *testing.B)       { benchInsert(b, true) }

// --- Streaming top-k benchmark -------------------------------------------------
//
// The streaming executor's early termination on a 64-peer simnet: a
// ranked top-k query with ordered shard release and a threshold stop.
// Metrics are simulated: total messages, end-to-end simulated
// milliseconds, and time-to-first-result milliseconds.

const topKQuery = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`

func BenchmarkTopKStreaming(b *testing.B) {
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 12,
		RangeShards:      8,
		ProbeParallelism: 2,
	})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 300})
	c.BulkInsert(ds.Triples...)
	var msgs, simMS, firstMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.QueryFrom(0, topKQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bindings) != 5 {
			b.Fatalf("top-5 returned %d rows", len(res.Bindings))
		}
		c.Net().Settle()
		msgs = float64(res.Messages)
		simMS = float64(res.Elapsed.Microseconds()) / 1000
		firstMS = float64(res.TimeToFirst.Microseconds()) / 1000
	}
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(simMS, "sim-ms")
	b.ReportMetric(firstMS, "ttfr-ms")
}

// --- Message-layer fast-path benchmarks ----------------------------------------

// BenchmarkIndexJoinWarmCache measures the DHT index join resolved with
// per-value OID probes once the caches learned the partition map from
// a first execution, so probes batch per responsible peer. The msgs
// metric is the headline; TestMessageBudgetIndexJoinWarm gates it
// against the cold first run.
func BenchmarkIndexJoinWarmCache(b *testing.B) {
	c := benchscen.IndexJoin()
	plan, err := benchscen.IndexJoinPlan()
	if err != nil {
		b.Fatal(err)
	}
	// Warm run (teaches the caches).
	c.Engine(0).RunPlan(plan)
	c.Net().Settle()
	var msgs, simMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := c.Net().Stats().MessagesSent
		bs, ex := c.Engine(0).RunPlan(plan)
		c.Net().Settle()
		if len(bs) == 0 {
			b.Fatal("index join returned nothing")
		}
		msgs = float64(c.Net().Stats().MessagesSent - before)
		simMS = float64(ex.Elapsed().Microseconds()) / 1000
	}
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(simMS, "sim-ms")
}

// BenchmarkPagedScan measures the paged full scan: bounded responses
// (PageSize entries each) at the cost of continuation pulls.
func BenchmarkPagedScan(b *testing.B) {
	c, _ := benchscen.Scan()
	var msgs, maxResp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Net().ResetStats()
		res, err := c.QueryFrom(0, benchscen.ScanQuery)
		if err != nil {
			b.Fatal(err)
		}
		c.Net().Settle()
		if len(res.Bindings) == 0 {
			b.Fatal("scan returned nothing")
		}
		st := c.Net().Stats()
		msgs = float64(st.MessagesSent)
		maxResp = float64(st.MaxSizePerKind[pgrid.KindResponse])
	}
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(maxResp, "max-resp-bytes")
}

// BenchmarkChurnTopKReplicaBalanced measures the ranked top-5 with 10%
// of a replicated 64-node simnet killed while the query's branch
// envelopes are in flight: the replica-balanced read path recovers by
// hedging and re-showering through live siblings.
func BenchmarkChurnTopKReplicaBalanced(b *testing.B) {
	var msgs, simMS, firstMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchscen.ChurnTopK()
		b.StartTimer()
		cr, err := benchscen.ChurnTopKRun(c)
		if err != nil {
			b.Fatal(err)
		}
		if cr.Rows == 0 {
			b.Fatal("churn top-k returned nothing")
		}
		msgs = float64(cr.Msgs)
		simMS = cr.SimMS
		firstMS = cr.TtfrMS
	}
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(simMS, "sim-ms")
	b.ReportMetric(firstMS, "ttfr-ms")
}

// benchGroupByAgg measures the in-network aggregation scenario: the
// venue/count GROUP BY over ~600 publication rows, with the strategy
// pinned to peer-side partial states (pushdown) or rows-to-the-
// coordinator (centralized). TestMessageBudgetGroupByAgg runs the same
// pair and fails when pushdown stops winning on messages or bytes.
func benchGroupByAgg(b *testing.B, pushdown bool) {
	c, _ := benchscen.GroupByAgg(pushdown)
	var msgs, bytes, simMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := c.Net().Stats()
		res, err := c.QueryFrom(0, benchscen.GroupByAggQuery)
		if err != nil {
			b.Fatal(err)
		}
		c.Net().Settle()
		if len(res.Bindings) == 0 {
			b.Fatal("group-by returned nothing")
		}
		after := c.Net().Stats()
		msgs = float64(after.MessagesSent - before.MessagesSent)
		bytes = float64(after.BytesSent - before.BytesSent)
		simMS = float64(res.Elapsed.Microseconds()) / 1000
	}
	b.ReportMetric(msgs, "msgs")
	b.ReportMetric(bytes, "bytes")
	b.ReportMetric(simMS, "sim-ms")
}

func BenchmarkGroupByAggPushdown(b *testing.B)    { benchGroupByAgg(b, true) }
func BenchmarkGroupByAggCentralized(b *testing.B) { benchGroupByAgg(b, false) }

// BenchmarkTimeToFirstResult reports how soon the streaming pipeline
// surfaces its first row on an exhaustive (unlimited) scan, against
// the query's full completion time.
func BenchmarkTimeToFirstResult(b *testing.B) {
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 14,
		RangeShards:      8,
		ProbeParallelism: 1,
	})
	ds := workload.Generate(workload.Options{Seed: 15, Persons: 300})
	c.BulkInsert(ds.Triples...)
	var firstMS, totalMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.QueryFrom(0, `SELECT ?n WHERE {(?p,'name',?n)}`)
		if err != nil {
			b.Fatal(err)
		}
		firstMS = float64(res.TimeToFirst.Microseconds()) / 1000
		totalMS = float64(res.Elapsed.Microseconds()) / 1000
	}
	b.ReportMetric(firstMS, "ttfr-ms")
	b.ReportMetric(totalMS, "total-ms")
}

func BenchmarkSkylineQuery(b *testing.B) {
	c := unistore.New(unistore.Config{Peers: 64, Seed: 6})
	ds := workload.Generate(workload.Options{Seed: 7, Persons: 200})
	c.Insert(ds.Triples...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT ?n,?age,?cnt WHERE {
			(?p,'name',?n) (?p,'age',?age) (?p,'num_of_pubs',?cnt)
		} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`); err != nil {
			b.Fatal(err)
		}
	}
}
