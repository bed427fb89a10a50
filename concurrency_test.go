// Concurrent-execution tests: many goroutines querying one cluster in
// the simulator's concurrent mode, the parallel bulk-insert path, and
// equivalence of both against the deterministic reference. CI runs
// this package under -race, which is what makes the thread-safety
// claims of the concurrency layer enforceable.
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

// queryRows runs a query and returns its rows rendered and sorted, so
// result sets compare independently of binding order.
func queryRows(t *testing.T, c *unistore.Cluster, peer int, q string) []string {
	t.Helper()
	res, err := c.QueryFrom(peer, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	var rows []string
	for _, row := range res.Rows() {
		rows = append(rows, fmt.Sprint(row))
	}
	sort.Strings(rows)
	return rows
}

var concurrencyQueries = []string{
	`SELECT ?p WHERE {(?p,'email','p7@example.org')}`,
	`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
	`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 10`,
	`SELECT ?n,?c WHERE {(?p,'name',?n) (?p,'num_of_pubs',?c) FILTER ?c >= 5}`,
}

// TestConcurrentQueriesMatchDeterministic loads the same dataset into
// a deterministic and a concurrent cluster and checks every query
// yields identical result sets, with the concurrent cluster serving
// many goroutines at once — several of them hammering the same engine.
func TestConcurrentQueriesMatchDeterministic(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 3, Persons: 60})

	ref := unistore.New(unistore.Config{Peers: 32, Seed: 9})
	ref.Insert(ds.Triples...)
	want := make(map[string][]string)
	for _, q := range concurrencyQueries {
		want[q] = queryRows(t, ref, 0, q)
	}

	c := unistore.New(unistore.Config{Peers: 32, Seed: 9, Concurrent: true})
	defer c.Close()
	c.BulkInsert(ds.Triples...)

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(concurrencyQueries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for qi, q := range concurrencyQueries {
					// Half the goroutines share engine 0 (contended
					// single-engine path), the rest spread out.
					peer := 0
					if g%2 == 1 {
						peer = (g*rounds + r + qi) % c.Size()
					}
					res, err := c.QueryFrom(peer, q)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						return
					}
					var rows []string
					for _, row := range res.Rows() {
						rows = append(rows, fmt.Sprint(row))
					}
					sort.Strings(rows)
					if fmt.Sprint(rows) != fmt.Sprint(want[q]) {
						errs <- fmt.Errorf("goroutine %d query %q: got %v want %v", g, q, rows, want[q])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBulkInsertEquivalence checks the parallel bulk path stores
// exactly what sequential Insert stores.
func TestBulkInsertEquivalence(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 5, Persons: 40})
	q := `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`

	seq := unistore.New(unistore.Config{Peers: 16, Seed: 2})
	seq.Insert(ds.Triples...)
	want := queryRows(t, seq, 0, q)

	bulk := unistore.New(unistore.Config{Peers: 16, Seed: 2})
	bulk.BulkInsert(ds.Triples...)
	if got := queryRows(t, bulk, 0, q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deterministic bulk insert diverged:\ngot  %v\nwant %v", got, want)
	}

	conc := unistore.New(unistore.Config{Peers: 16, Seed: 2, Concurrent: true})
	defer conc.Close()
	conc.BulkInsert(ds.Triples...)
	if got := queryRows(t, conc, 0, q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("concurrent bulk insert diverged:\ngot  %v\nwant %v", got, want)
	}
}

// TestConcurrentBulkInsertFromManyGoroutines overlaps several
// BulkInsert calls (disjoint OID spaces) and verifies nothing is lost.
func TestConcurrentBulkInsertFromManyGoroutines(t *testing.T) {
	c := unistore.New(unistore.Config{Peers: 16, Seed: 4, Concurrent: true})
	defer c.Close()

	const writers = 4
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ts []unistore.Triple
			for i := 0; i < perWriter; i++ {
				oid := fmt.Sprintf("w%d-%d", w, i)
				ts = append(ts,
					unistore.T(oid, "name", fmt.Sprintf("person %d-%d", w, i)),
					unistore.TN(oid, "age", float64(20+i)))
			}
			c.BulkInsert(ts...)
		}(w)
	}
	wg.Wait()

	rows := queryRows(t, c, 0, `SELECT ?p,?n WHERE {(?p,'name',?n)}`)
	if len(rows) != writers*perWriter {
		t.Fatalf("got %d names after concurrent bulk inserts, want %d", len(rows), writers*perWriter)
	}
}

// TestConcurrentInsertDuringQueries overlaps ingest with querying:
// optimizer statistics are written by BulkInsert while query
// optimization reads them, which must be safe (it races fatally on the
// stats map if either side skips the stats lock).
func TestConcurrentInsertDuringQueries(t *testing.T) {
	c := unistore.New(unistore.Config{Peers: 16, Seed: 6, Concurrent: true})
	defer c.Close()
	ds := workload.Generate(workload.Options{Seed: 8, Persons: 30})
	c.BulkInsert(ds.Triples...)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			oid := fmt.Sprintf("late-%d", i)
			c.BulkInsert(
				unistore.T(oid, "name", fmt.Sprintf("late person %d", i)),
				unistore.TN(oid, "age", float64(30+i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.QueryFrom(i%c.Size(), concurrencyQueries[i%len(concurrencyQueries)]); err != nil {
				t.Errorf("query during ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	rows := queryRows(t, c, 0, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if len(rows) != 30+20 {
		t.Fatalf("got %d names after overlapping ingest, want %d", len(rows), 50)
	}
}

// TestPagedFanOutMatchesReference: the fan-out every cluster runs —
// one shower per scan, every derivable probe issued at once — with
// scans paged as the scenarios page them must produce the unpaged
// reference result set.
func TestPagedFanOutMatchesReference(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 7, Persons: 50})
	q := concurrencyQueries[1]

	ref := unistore.New(unistore.Config{Peers: 32, Seed: 3})
	ref.Insert(ds.Triples...)
	want := queryRows(t, ref, 0, q)

	c := unistore.New(unistore.Config{Peers: 32, Seed: 3, PageSize: benchscen.ScanPageSize})
	c.Insert(ds.Triples...)
	if got := queryRows(t, c, 0, q); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged fan-out diverged:\ngot  %v\nwant %v", got, want)
	}
}
