// Flow-control equivalence tests at the public API: receiver-driven
// credit windows are a transport concern and must be invisible to
// query results at ANY window setting — a 1-message stop-and-wait
// window, a few-hundred-byte window and an effectively infinite one
// must all return the rows of the unpaged reference under the infinite
// window, at every page size, deterministic and concurrent (CI runs this package
// under -race). A throttled replica killed mid-workload must not dent
// exactness either: the failover release frees its credit and reads
// fail over to the sibling.
package unistore_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unistore"
	"unistore/internal/workload"
)

// flowWindows is the window axis of the equivalence matrix: one
// message (stop-and-wait), tiny bytes, the defaults, and effectively
// infinite credit — the uncontrolled reference, which never gates a
// send.
var flowWindows = []struct {
	name  string
	bytes int
	msgs  int
}{
	{"one-msg", 1 << 20, 1},
	{"tiny-bytes", 384, 1024},
	{"default", 0, 0},
	{"infinite", 1 << 30, 1 << 20},
}

var flowQueries = []string{
	`SELECT ?n WHERE {(?p,'name',?n)}`,
	`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 6`,
	`SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c`,
}

func flowConfig(pageSize, winBytes, winMsgs int) unistore.Config {
	return unistore.Config{
		Peers: 32, Replicas: 2, Seed: 91,
		PageSize:        pageSize,
		FlowWindowBytes: winBytes,
		FlowWindowMsgs:  winMsgs,
	}
}

// infiniteFlow is the uncontrolled reference configuration: unpaged,
// under the infinite window.
func infiniteFlow() unistore.Config {
	w := flowWindows[len(flowWindows)-1]
	return flowConfig(0, w.bytes, w.msgs)
}

// TestFlowControlEquivalenceMatrix: every (window × page-size) cell
// returns exactly the rows of the uncontrolled unpaged reference.
func TestFlowControlEquivalenceMatrix(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 92, Persons: 90})

	ref := unistore.New(infiniteFlow())
	ref.BulkInsert(ds.Triples...)
	want := make(map[string][]string)
	for _, q := range flowQueries {
		want[q] = queryRows(t, ref, 0, q)
		if len(want[q]) == 0 {
			t.Fatalf("reference empty for %q", q)
		}
	}

	for _, w := range flowWindows {
		for _, ps := range []int{1, 3, 1 << 20} {
			t.Run(fmt.Sprintf("win=%s/page=%d", w.name, ps), func(t *testing.T) {
				c := unistore.New(flowConfig(ps, w.bytes, w.msgs))
				c.BulkInsert(ds.Triples...)
				for _, q := range flowQueries {
					if got := queryRows(t, c, 0, q); fmt.Sprint(got) != fmt.Sprint(want[q]) {
						t.Errorf("%q: got %d rows %v, want %d rows %v",
							q, len(got), got, len(want[q]), want[q])
					}
				}
			})
		}
	}
}

// TestFlowControlEquivalenceConcurrent runs the tight-window cells in
// concurrent mode with several goroutines hammering the cluster — the
// -race job makes the flow table's locking claims enforceable.
func TestFlowControlEquivalenceConcurrent(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 92, Persons: 90})

	ref := unistore.New(infiniteFlow())
	ref.BulkInsert(ds.Triples...)
	want := make(map[string][]string)
	for _, q := range flowQueries {
		want[q] = queryRows(t, ref, 0, q)
	}

	for _, w := range flowWindows[:2] { // one-msg and tiny-bytes: the stressful cells
		t.Run(w.name, func(t *testing.T) {
			cfg := flowConfig(3, w.bytes, w.msgs)
			cfg.Concurrent = true
			c := unistore.New(cfg)
			defer c.Close()
			c.BulkInsert(ds.Triples...)

			const goroutines = 6
			var wg sync.WaitGroup
			errs := make(chan string, goroutines*len(flowQueries))
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for qi, q := range flowQueries {
						res, err := c.QueryFrom((g+qi)%c.Size(), q)
						if err != nil {
							errs <- fmt.Sprintf("%q: %v", q, err)
							continue
						}
						got := sortedRows(res)
						if fmt.Sprint(got) != fmt.Sprint(want[q]) {
							errs <- fmt.Sprintf("%q: got %v, want %v", q, got, want[q])
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestFlowSlowReplicaKillMidStreamExact: a 10×-throttled replica is
// killed while paged scans are pulling from it under a tiny credit
// window. The kill must release every charge held against the corpse
// (the zero-credit liveness rule at system level) and reads must fail
// over to the live sibling with results intact.
func TestFlowSlowReplicaKillMidStreamExact(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 94, Persons: 80})

	ref := unistore.New(flowConfig(8, 512, 4))
	ref.BulkInsert(ds.Triples...)
	want := make(map[string][]string)
	for _, q := range flowQueries {
		want[q] = queryRows(t, ref, 0, q)
	}

	cfg := flowConfig(8, 512, 4)
	cfg.Concurrent = true
	c := unistore.New(cfg)
	defer c.Close()
	c.BulkInsert(ds.Triples...)
	for _, q := range flowQueries { // learn replica sets before the kill
		queryRows(t, c, 0, q)
	}

	const victim = 5
	c.Net().SetServiceDelay(c.Peers()[victim].ID(), 2*time.Millisecond)

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*2*len(flowQueries))
	var once sync.Once
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2; r++ {
				for _, q := range flowQueries {
					res, err := c.QueryFrom((victim+1+g)%c.Size(), q)
					if err != nil {
						errs <- fmt.Sprintf("%q: %v", q, err)
						continue
					}
					got := sortedRows(res)
					if fmt.Sprint(got) != fmt.Sprint(want[q]) {
						errs <- fmt.Sprintf("%q: got %v, want %v", q, got, want[q])
					}
					// First completed query: kill the throttled replica
					// while the others are still streaming from it.
					once.Do(func() { c.Kill(victim) })
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	leaks := 0
	for i := 0; i < c.Size(); i++ {
		leaks += c.Peers()[i].PendingOps()
	}
	if leaks != 0 {
		t.Errorf("pending operations leaked across the mid-stream kill: %d", leaks)
	}
}
