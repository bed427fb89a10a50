// Streaming-executor tests at the public API: top-k early termination
// must measurably reduce network traffic on a 64-peer simnet, the
// streaming cursor must deliver rows before query completion, and
// cancellation must leak neither goroutines nor pending overlay
// operations (CI runs this file under -race).
package unistore_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"unistore"
	"unistore/internal/workload"
)

// streamCluster builds the deterministic 64-peer cluster the
// message-count assertions run on: sharded range scans give the
// early-out shards to skip, and a small window keeps them unissued.
func streamCluster(seed int64) *unistore.Cluster {
	return unistore.New(unistore.Config{
		Peers: 64, Seed: seed,
		RangeShards:      8,
		ProbeParallelism: 2,
	})
}

func loadPersons(c *unistore.Cluster, seed int64, n int) {
	ds := workload.Generate(workload.Options{Seed: seed, Persons: n})
	c.BulkInsert(ds.Triples...)
}

// TestLimitAndTopKSendFewerMessages: on a 64-peer simnet, LIMIT-k and
// ranked top-k queries must send strictly fewer messages than the
// exhaustive scan of the same pattern.
func TestLimitAndTopKSendFewerMessages(t *testing.T) {
	c := streamCluster(31)
	loadPersons(c, 32, 150)
	full, err := c.QueryFrom(0, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	c.Net().Settle()
	for _, src := range []string{
		`SELECT ?n WHERE {(?p,'name',?n)} LIMIT 3`,
		`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`,
		`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n TOP 5`,
	} {
		res, err := c.QueryFrom(0, src)
		if err != nil {
			t.Fatal(err)
		}
		c.Net().Settle()
		if len(res.Bindings) == 0 {
			t.Fatalf("%q returned nothing", src)
		}
		if res.Messages >= full.Messages {
			t.Errorf("%q sent %d messages, full scan %d — early termination must stop remote probes",
				src, res.Messages, full.Messages)
		}
		t.Logf("%q: %d messages (full scan %d)", src, res.Messages, full.Messages)
	}
}

// TestRankedTopKMatchesFullSort: over ten seeded 64-peer clusters, the
// ranked top-5 must be exactly the first five rows of the exhaustive
// ORDER BY — with the default single shard, where the entries of one
// shower arrive in peer-arrival order rather than key order, and with
// eight shards, where a shard still spans several partitions.
func TestRankedTopKMatchesFullSort(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  unistore.Config
	}{
		{"default_shards", unistore.Config{Peers: 64}},
		{"eight_shards", unistore.Config{Peers: 64, RangeShards: 8, ProbeParallelism: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				cfg := tc.cfg
				cfg.Seed = seed
				c := unistore.New(cfg)
				loadPersons(c, seed+100, 150)
				c.Net().Settle()

				names := func(src string) []string {
					res, err := c.QueryFrom(0, src)
					if err != nil {
						t.Fatal(err)
					}
					c.Net().Settle()
					var out []string
					for _, b := range res.Bindings {
						out = append(out, b["n"].Lexical())
					}
					return out
				}
				want := names(`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`)
				want = want[:min(5, len(want))]
				got := names(`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`)
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("seed %d: top-5 mismatch\n got %v\nwant %v", seed, got, want)
				}
			}
		})
	}
}

// TestDescendingTopKStreamsPages: a DESCENDING ranked top-k on a
// paged, sharded cluster must return the exact reverse-order result
// while sending strictly fewer messages than the exhaustive scan —
// the reverse-scan page order lets the rank frontier stream pages
// top-down and stop mid-shard instead of buffering whole shards.
func TestDescendingTopKStreamsPages(t *testing.T) {
	build := func() *unistore.Cluster {
		c := unistore.New(unistore.Config{
			Peers: 64, Seed: 41, RangeShards: 8, ProbeParallelism: 2, PageSize: 4,
		})
		loadPersons(c, 42, 150)
		return c
	}
	c := build()
	full, err := c.QueryFrom(0, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	c.Net().Settle()
	// Expected: the 5 largest names, descending.
	var names []string
	for _, b := range full.Bindings {
		names = append(names, b["n"].Lexical())
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	want := names[:5]

	c2 := build() // fresh cluster: no warm caches to confound counts
	res, err := c2.QueryFrom(0, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Net().Settle()
	var got []string
	for _, b := range res.Bindings {
		got = append(got, b["n"].Lexical())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("desc top-5 = %v, want %v", got, want)
	}
	if res.Messages >= full.Messages {
		t.Errorf("desc top-5 sent %d messages, full scan %d — descending pages must stream and stop early",
			res.Messages, full.Messages)
	}
	t.Logf("desc top-5: %d messages (full scan %d)", res.Messages, full.Messages)
}

// TestTimeToFirstResultBeatsCompletion: a streaming scan must have its
// first row strictly before the last shard lands.
func TestTimeToFirstResultBeatsCompletion(t *testing.T) {
	c := streamCluster(33)
	loadPersons(c, 34, 150)
	// Sequential shard processing guarantees a gap between the first
	// and last response.
	c.Engine(0).SetParallelism(1)
	res, err := c.QueryFrom(0, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToFirst <= 0 || res.TimeToFirst >= res.Elapsed {
		t.Errorf("time-to-first %v must fall inside (0, %v)", res.TimeToFirst, res.Elapsed)
	}
}

// TestQueryStreamDeliversIncrementally exercises the pull cursor end
// to end in deterministic mode.
func TestQueryStreamDeliversIncrementally(t *testing.T) {
	c := streamCluster(35)
	loadPersons(c, 36, 80)
	st, err := c.QueryStream(context.Background(), `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var names []string
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		names = append(names, row["n"].Str)
	}
	if len(names) != 4 || !sort.StringsAreSorted(names) {
		t.Fatalf("streamed top-4 = %v", names)
	}
	res := st.Result()
	if res == nil || len(res.Bindings) != 4 {
		t.Fatalf("exhausted stream's Result = %+v, want 4 rows", res)
	}
	if res.TimeToFirst > res.Elapsed {
		t.Errorf("time-to-first %v after completion %v", res.TimeToFirst, res.Elapsed)
	}
}

// TestCancellationReleasesEverything: canceling queries mid-flight in
// concurrent mode must leave no pending overlay operation and no
// lingering goroutine once the cluster closes.
func TestCancellationReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		c := unistore.New(unistore.Config{
			Peers: 64, Seed: 37,
			RangeShards: 8, ProbeParallelism: 1,
			Concurrent:   true,
			TimeDilation: 20, // slow enough that cancellation races real work
		})
		defer c.Close()
		loadPersons(c, 38, 100)
		for i := 0; i < 8; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			st, err := c.QueryStream(ctx, `SELECT ?n WHERE {(?p,'name',?n)}`, unistore.From(i))
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				// Half the queries die by context, half by Close; both
				// paths must release the pending table.
				cancel()
			}
			if _, ok := st.Next(); !ok && i%2 == 1 {
				t.Errorf("query %d: no row before close", i)
			}
			st.Close()
			cancel()
		}
		c.Net().Quiesce()
		for i, p := range c.Peers() {
			if n := p.PendingOps(); n != 0 {
				t.Errorf("peer %d holds %d pending ops after cancellation", i, n)
			}
		}
	}()
	// The network's scheduler and worker goroutines exit in Close;
	// allow some slack for the runtime's own background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestConcurrentTopKMatchesDeterministic: the ordered shard release
// must make concurrent-mode top-k results identical to the
// deterministic reference even though shard completions race.
func TestConcurrentTopKMatchesDeterministic(t *testing.T) {
	ds := workload.Generate(workload.Options{Seed: 40, Persons: 60})
	q := `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 7`

	ref := streamCluster(41)
	ref.Insert(ds.Triples...)
	want, err := ref.QueryFrom(0, q)
	if err != nil {
		t.Fatal(err)
	}

	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 41,
		RangeShards: 8, ProbeParallelism: 2,
		Concurrent: true,
	})
	defer c.Close()
	c.BulkInsert(ds.Triples...)
	got, err := c.QueryFrom(0, q)
	if err != nil {
		t.Fatal(err)
	}
	render := func(r *unistore.Result) string {
		s := ""
		for _, row := range r.Rows() {
			s += fmt.Sprint(row) + "|"
		}
		return s
	}
	if render(got) != render(want) {
		t.Fatalf("concurrent top-k diverged:\n got %s\nwant %s", render(got), render(want))
	}
}
