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
	"unistore/internal/benchscen"
	"unistore/internal/optimizer"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// streamCluster builds the deterministic 64-peer cluster the
// message-count assertions run on: paged range scans give the early-out
// pages never to pull.
func streamCluster(seed int64) *unistore.Cluster {
	return unistore.New(unistore.Config{
		Peers: 64, Seed: seed, PageSize: benchscen.ScanPageSize,
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

// nameRegionCluster builds a 64-peer cluster whose trie is planned
// from the A#v keys of 400 (pNNN,'name',nNNN) triples alone, perName
// persons to a name, so the name region spreads over many partitions,
// and loads those triples. cfg supplies the rest of the configuration.
func nameRegionCluster(t *testing.T, cfg unistore.Config, perName int) *unistore.Cluster {
	t.Helper()
	var ts []unistore.Triple
	for i := 0; i < 400; i++ {
		tr := unistore.T(fmt.Sprintf("p%03d", i), "name", fmt.Sprintf("n%03d", i/perName))
		ts = append(ts, tr)
		cfg.AdaptiveSamples = append(cfg.AdaptiveSamples, triple.IndexKey(tr, triple.ByAV))
	}
	cfg.Peers = 64
	c := unistore.New(cfg)
	c.BulkInsert(ts...)
	if n := regionPartitions(c, "name"); n < 2 {
		t.Fatalf("name region on %d partition(s); the test needs several", n)
	}
	return c
}

// regionPartitions counts the distinct partitions the attribute's A#v
// region overlaps.
func regionPartitions(c *unistore.Cluster, attr string) int {
	r := triple.AVPrefixRange(attr)
	parts := map[string]bool{}
	for _, p := range c.Peers() {
		if r.OverlapsPrefix(p.Path()) {
			parts[p.Path().String()] = true
		}
	}
	return len(parts)
}

// TestRankedTopKMatchesFullSort: the ranked top-5, ascending and
// descending, unpaged and paged at 4, must be exactly the first five
// rows of the exhaustive ordering, from every origin checked. The
// default layout (default_shards: one shower per scan, as every
// cluster runs) holds the name region on one partition, whose pages
// arrive in key order; the adaptive layout spreads it over several
// partitions, whose pages interleave.
func TestRankedTopKMatchesFullSort(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seeds   []int64
		origins []int
		build   func(seed int64, pageSize int) *unistore.Cluster
	}{
		{"default_shards", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []int{0}, func(seed int64, pageSize int) *unistore.Cluster {
			c := unistore.New(unistore.Config{Peers: 64, Seed: seed, PageSize: pageSize})
			loadPersons(c, seed+100, 150)
			return c
		}},
		{"adaptive", []int64{8}, []int{0, 9, 18, 27, 36, 45, 54, 63}, func(seed int64, pageSize int) *unistore.Cluster {
			return nameRegionCluster(t, unistore.Config{Seed: seed, PageSize: pageSize}, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				for _, pageSize := range []int{0, 4} {
					c := tc.build(seed, pageSize)
					c.Net().Settle()
					names := func(origin int, src string) []string {
						res, err := c.QueryFrom(origin, src)
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
					for _, dir := range []string{"", " DESC"} {
						want := names(0, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`+dir)
						want = want[:min(5, len(want))]
						for _, origin := range tc.origins {
							got := names(origin, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n`+dir+` LIMIT 5`)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Errorf("seed %d page %d origin %d%s: top-5 mismatch\n got %v\nwant %v",
									seed, pageSize, origin, dir, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestRankedGroupByOverSpreadRegion: the rank-fed centralized
// aggregation (GROUP BY ?n ORDER BY ?n LIMIT 5) finalizes a group when
// the ranking value moves on, which holds only while one partition
// serves the region. Over a name region spread across partitions,
// three persons to a name, every group must still count all three,
// ascending and descending, unpaged and paged at 4.
func TestRankedGroupByOverSpreadRegion(t *testing.T) {
	opt := optimizer.DefaultOptions()
	opt.Agg = optimizer.AggCentralized
	for _, pageSize := range []int{0, 4} {
		c := nameRegionCluster(t, unistore.Config{Seed: 8, PageSize: pageSize, Optimizer: opt}, 3)
		c.Net().Settle()
		for _, dir := range []string{"", " DESC"} {
			src := `SELECT ?n, count(*) AS ?c WHERE {(?p,'name',?n)} GROUP BY ?n ORDER BY ?n` + dir
			full, err := c.QueryFrom(0, src)
			if err != nil {
				t.Fatal(err)
			}
			c.Net().Settle()
			want := fmt.Sprint(full.Rows()[:5])
			for _, origin := range []int{0, 21, 42, 63} {
				res, err := c.QueryFrom(origin, src+` LIMIT 5`)
				if err != nil {
					t.Fatal(err)
				}
				c.Net().Settle()
				if got := fmt.Sprint(res.Rows()); got != want {
					t.Errorf("page %d origin %d%s: got %s, want %s", pageSize, origin, dir, got, want)
				}
			}
		}
	}
}

// TestDescendingTopKStreamsPages: a DESCENDING ranked top-k on a
// paged cluster must return the exact reverse-order result while
// sending strictly fewer messages than the exhaustive scan — the
// reverse-scan page order lets the rank frontier stream pages top-down
// and stop before the last page is pulled.
func TestDescendingTopKStreamsPages(t *testing.T) {
	build := func() *unistore.Cluster {
		c := unistore.New(unistore.Config{
			Peers: 64, Seed: 41, PageSize: 4,
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
// first row strictly before the last page lands.
func TestTimeToFirstResultBeatsCompletion(t *testing.T) {
	c := streamCluster(33)
	loadPersons(c, 34, 150)
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
			Peers: 64, Seed: 37, PageSize: benchscen.ScanPageSize,
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

// TestConcurrentTopKMatchesDeterministic: the ordered page stream
// must make concurrent-mode top-k results identical to the
// deterministic reference even though responses race.
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
		Peers: 64, Seed: 41, PageSize: benchscen.ScanPageSize,
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
