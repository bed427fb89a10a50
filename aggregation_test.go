// Pushdown-vs-centralized aggregation equivalence suite: every GROUP
// BY / aggregate / DISTINCT / HAVING query shape must return identical
// groups under both execution strategies, at every page size, from
// concurrent goroutines under -race, and with 10% of a replicated
// simnet killed mid-flight — the in-memory algebra executor is the
// oracle throughout.
package unistore_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"unistore"
	"unistore/internal/algebra"
	"unistore/internal/benchscen"
	"unistore/internal/optimizer"
	"unistore/internal/triple"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

// aggEqQueries covers every aggregate shape over the workload schema.
var aggEqQueries = []string{
	`SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c`,
	`SELECT ?s, count(*) AS ?n, min(?y) AS ?lo, max(?y) AS ?hi WHERE {(?c,'series',?s) (?c,'year',?y)} GROUP BY ?s`,
	`SELECT ?s, avg(?y) AS ?m WHERE {(?c,'series',?s) (?c,'year',?y)} GROUP BY ?s HAVING ?m >= 2000`,
	`SELECT count(DISTINCT ?c) AS ?d WHERE {(?u,'published_in',?c)}`,
	`SELECT count(*) WHERE {(?p,'age',?a)}`,
	`SELECT DISTINCT ?s WHERE {(?c,'series',?s)}`,
	`SELECT ?a, count(*) AS ?n WHERE {(?p,'age',?a)} GROUP BY ?a ORDER BY ?a LIMIT 4`,
	`SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c ORDER BY ?n DESC LIMIT 5`,
}

// aggCanon renders bindings order-independently.
func aggCanon(bs []algebra.Binding) []string {
	var out []string
	for _, b := range bs {
		var vars []string
		for k := range b {
			vars = append(vars, k)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v + "=" + b[v].Lexical() + ";")
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// aggOracle executes the query on the in-memory reference executor.
func aggOracle(t testing.TB, src string, data []triple.Triple) []algebra.Binding {
	t.Helper()
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	lp, err := algebra.Build(q)
	if err != nil {
		t.Fatalf("build %q: %v", src, err)
	}
	return algebra.Execute(lp, &algebra.MemSource{Triples: data})
}

func aggEqCluster(pageSize int, push, concurrent bool) (*unistore.Cluster, []unistore.Triple) {
	opt := optimizer.DefaultOptions()
	if push {
		opt.Agg = optimizer.AggPushdown
	} else {
		opt.Agg = optimizer.AggCentralized
	}
	c := unistore.New(unistore.Config{
		Peers: 32, Seed: 51, PageSize: pageSize, Optimizer: opt,
		Concurrent: concurrent,
	})
	ds := workload.Generate(workload.Options{Seed: 52, Persons: 120})
	c.BulkInsert(ds.Triples...)
	if concurrent {
		c.Net().Quiesce()
	} else {
		c.Net().Settle()
	}
	return c, ds.Triples
}

// checkAggQuery runs one query and compares against the oracle;
// ordered LIMIT queries admit tie reshuffles, so they compare sizes
// and membership in the unlimited reference set.
func checkAggQuery(t testing.TB, c *unistore.Cluster, src string, data []triple.Triple, label string) {
	t.Helper()
	res, err := c.QueryFrom(0, src)
	if err != nil {
		t.Fatalf("%s: %q: %v", label, src, err)
	}
	got := aggCanon(res.Bindings)
	want := aggCanon(aggOracle(t, src, data))
	if strings.Contains(src, "LIMIT") {
		if len(got) != len(want) {
			t.Fatalf("%s: %q sizes differ: %d vs %d\n got %v\nwant %v",
				label, src, len(got), len(want), got, want)
		}
		full := map[string]bool{}
		unlimited := src[:strings.Index(src, " ORDER BY")]
		for _, s := range aggCanon(aggOracle(t, unlimited, data)) {
			full[s] = true
		}
		for _, s := range got {
			if !full[s] {
				t.Fatalf("%s: %q fabricated row %q", label, src, s)
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q\n got %v\nwant %v", label, src, got, want)
	}
}

// TestAggregationEquivalencePushdownVsCentralized is the deterministic
// suite: PageSize ∈ {1, 3, ∞} × {pushdown, centralized} × every query
// shape, identical group results throughout.
func TestAggregationEquivalencePushdownVsCentralized(t *testing.T) {
	for _, pageSize := range []int{1, 3, 0} {
		for _, push := range []bool{true, false} {
			c, data := aggEqCluster(pageSize, push, false)
			label := fmt.Sprintf("page=%d push=%v", pageSize, push)
			for _, src := range aggEqQueries {
				checkAggQuery(t, c, src, data, label)
			}
		}
	}
}

// TestAggregationConcurrent issues aggregate queries from many
// goroutines against a concurrent-mode cluster (the -race CI job makes
// the thread-safety claim enforceable).
func TestAggregationConcurrent(t *testing.T) {
	for _, push := range []bool{true, false} {
		c, data := aggEqCluster(benchscen.ScanPageSize, push, true)
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, src := range aggEqQueries {
					if strings.Contains(src, "LIMIT") {
						continue // tie-dependent; covered deterministically
					}
					res, err := c.QueryFrom((g+i)%c.Size(), src)
					if err != nil {
						errs <- fmt.Errorf("g%d: %q: %v", g, src, err)
						return
					}
					got := aggCanon(res.Bindings)
					want := aggCanon(aggOracle(t, src, data))
					if !reflect.DeepEqual(got, want) {
						errs <- fmt.Errorf("g%d push=%v: %q diverged:\n got %v\nwant %v",
							g, push, src, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		c.Close()
	}
}

// TestAggregationExactUnderChurn: the GroupByAgg scenario with 10% of
// a replicated simnet killed mid-flight (ChurnTopK-style) must still
// return exactly the oracle's groups under BOTH strategies — partial
// states are idempotent per covered partition, so coverage-based
// retries keep the merge exact.
func TestAggregationExactUnderChurn(t *testing.T) {
	for _, push := range []bool{true, false} {
		c, data := benchscen.GroupByAggChurn(push)
		plan, err := benchscen.GroupByAggPlan(push)
		if err != nil {
			t.Fatal(err)
		}
		if push != plan.Tail.AggPushdown {
			t.Fatalf("strategy pin failed: want push=%v", push)
		}
		cr, err := benchscen.ChurnRun(c, plan)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Dead == 0 {
			t.Fatalf("push=%v: churn killed nobody", push)
		}
		got := aggCanon(cr.Bindings)
		want := aggCanon(aggOracle(t, benchscen.GroupByAggQuery, data))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("push=%v with %d dead peers diverged:\n got %v\nwant %v",
				push, cr.Dead, got, want)
		}
		t.Logf("push=%v: exact groups with %d dead peers, %d msgs", push, cr.Dead, cr.Msgs)
	}
}
