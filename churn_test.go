// Churn-failover tests: queries must survive peers dying mid-workload
// (and mid-flight) on a replicated overlay — exact results, no
// pending-operation leaks, bounded retry traffic. The deterministic
// half engineers the worst case (branch envelopes lost with their
// first-hop targets); the concurrent half runs ranked and join queries
// from many goroutines against a 10%-dead simnet under -race.
package unistore_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"unistore"
	"unistore/internal/benchscen"
	"unistore/internal/workload"
)

// TestChurnTopKExactUnderChurn: the replica-balanced churn scenario —
// 10% of the nodes killed while the ranked top-k's branch envelopes
// are in flight — must return exactly the healthy cluster's result,
// leak no pending operations, and stay within a small retry budget.
func TestChurnTopKExactUnderChurn(t *testing.T) {
	// Reference: the identical cluster (same seeds, same data), no
	// churn.
	ref := benchscen.ChurnTopK()
	refRes, err := ref.QueryFrom(0, benchscen.TopKQuery)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, b := range refRes.Bindings {
		want = append(want, b["n"].Lexical())
	}
	if len(want) != 5 {
		t.Fatalf("reference top-5 returned %d rows", len(want))
	}

	c := benchscen.ChurnTopK()
	cr, err := benchscen.ChurnTopKRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Dead == 0 {
		t.Fatal("churn run killed nobody; scenario is vacuous")
	}
	var got []string
	for _, b := range cr.Bindings {
		got = append(got, b["n"].Lexical())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("churned top-5 = %v, want %v", got, want)
	}
	leaks := 0
	for _, p := range c.Peers() {
		leaks += p.PendingOps()
	}
	if leaks != 0 {
		t.Errorf("pending operations leaked under churn: %d", leaks)
	}
	retries := 0
	for _, p := range c.Peers() {
		st := p.Stats()
		retries += st.ProbeRetries + st.ScanRetries
	}
	if retries == 0 {
		t.Error("no failover retries fired; the kill missed the query")
	}
	if retries > 16 {
		t.Errorf("failover used %d retries; want a bounded handful", retries)
	}
}

// churnQueries are the workloads of the concurrent churn test: the
// ranked top-k and an index join (probe-heavy), both exercised by the
// replica read path.
var churnQueries = []string{
	`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`,
	`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
}

// TestChurnQueriesConcurrent kills 10% of a replicated concurrent-mode
// simnet (one replica per partition) and hammers it with ranked and
// join queries from many goroutines: every result must match the
// healthy deterministic reference, and nothing may leak. CI's -race
// job runs this with goroutine-level parallelism.
func TestChurnQueriesConcurrent(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 31, Persons: 80})

	ref := unistore.New(unistore.Config{Peers: 32, Replicas: 2, Seed: 33, PageSize: 8, RangeShards: 4})
	ref.Insert(ds.Triples...)
	want := make(map[string][]string)
	for _, q := range churnQueries {
		want[q] = queryRows(t, ref, 0, q)
	}

	c := unistore.New(unistore.Config{
		Peers: 32, Replicas: 2, Seed: 33, PageSize: 8, RangeShards: 4,
		ProbeParallelism: 2, Concurrent: true,
	})
	defer c.Close()
	c.BulkInsert(ds.Triples...)
	// Warm the caches (and learn the replica sets) once per query.
	for _, q := range churnQueries {
		queryRows(t, c, 0, q)
	}

	// Kill 10% of the nodes: one replica per partition, never peer 0.
	byPath := map[string]bool{}
	killed := 0
	for i := 1; i < c.Size() && killed < c.Size()/10; i++ {
		path := c.Peers()[i].Path().String()
		if byPath[path] {
			continue
		}
		byPath[path] = true
		c.Kill(i)
		killed++
	}
	if killed == 0 {
		t.Fatal("killed nobody")
	}
	// Queries must originate at live peers — a corpse cannot serve.
	var live []int
	for i := 0; i < c.Size(); i++ {
		if c.Net().Alive(c.Peers()[i].ID()) {
			live = append(live, i)
		}
	}

	const goroutines = 6
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(churnQueries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, q := range churnQueries {
					res, err := c.QueryFrom(live[g%len(live)], q)
					if err != nil {
						errs <- fmt.Sprintf("query %q: %v", q, err)
						continue
					}
					var rows []string
					for _, row := range res.Rows() {
						rows = append(rows, fmt.Sprint(row))
					}
					sort.Strings(rows)
					if fmt.Sprint(rows) != fmt.Sprint(want[q]) {
						errs <- fmt.Sprintf("goroutine %d round %d %q:\n got %v\nwant %v", g, r, q, rows, want[q])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	c.Net().Quiesce()
	leaks := 0
	for _, p := range c.Peers() {
		leaks += p.PendingOps()
	}
	if leaks != 0 {
		t.Errorf("pending operations leaked: %d", leaks)
	}
}
