// Peer-side paging tests at the public API: paged range scans must be
// invisible to results at any page size, and LIMIT/top-k early
// termination must stop pulling pages the moment the threshold stop
// fires — pages the tail no longer needs are never requested.
package unistore_test

import (
	"fmt"
	"sort"
	"testing"

	"unistore"
	"unistore/internal/pgrid"
)

// pagedCluster builds the deterministic 32-peer cluster the paging
// assertions run on.
func pagedCluster(seed int64, pageSize int) *unistore.Cluster {
	return unistore.New(unistore.Config{
		Peers: 32, Seed: seed,
		PageSize: pageSize,
	})
}

func sortedRows(res *unistore.Result) []string {
	var out []string
	for _, row := range res.Rows() {
		out = append(out, fmt.Sprint(row))
	}
	sort.Strings(out)
	return out
}

// TestPagedScanEquivalence: full scans and LIMIT queries must return
// identical bindings with PageSize ∈ {1, 3, ∞}.
func TestPagedScanEquivalence(t *testing.T) {
	const (
		fullQuery  = `SELECT ?n WHERE {(?p,'name',?n)}`
		limitQuery = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 4`
	)
	var wantFull, wantLimit []string
	for i, ps := range []int{0, 1, 3} { // 0 first: the unpaged reference
		c := pagedCluster(71, ps)
		loadPersons(c, 72, 120)
		full, err := c.QueryFrom(0, fullQuery)
		if err != nil {
			t.Fatal(err)
		}
		c.Net().Settle()
		limited, err := c.QueryFrom(0, limitQuery)
		if err != nil {
			t.Fatal(err)
		}
		c.Net().Settle()
		gotFull, gotLimit := sortedRows(full), sortedRows(limited)
		if i == 0 {
			wantFull, wantLimit = gotFull, gotLimit
			if len(wantFull) == 0 || len(wantLimit) != 4 {
				t.Fatalf("reference results degenerate: %d full, %d limited", len(wantFull), len(wantLimit))
			}
			continue
		}
		if fmt.Sprint(gotFull) != fmt.Sprint(wantFull) {
			t.Errorf("PageSize=%d: full scan diverged (%d rows vs %d)", ps, len(gotFull), len(wantFull))
		}
		if fmt.Sprint(gotLimit) != fmt.Sprint(wantLimit) {
			t.Errorf("PageSize=%d: LIMIT query diverged: %v vs %v", ps, gotLimit, wantLimit)
		}
	}
}

// TestEarlyTerminationStopsPagePulls: with maximal paging, a top-k
// query must pull strictly fewer pages than the exhaustive scan of the
// same pattern — the threshold stop ends the pull loop, it does not
// merely discard rows.
func TestEarlyTerminationStopsPagePulls(t *testing.T) {
	c := pagedCluster(73, 1)
	loadPersons(c, 74, 120)

	pageMsgs := func(src string) (int, int) {
		before := c.Net().Stats()
		res, err := c.QueryFrom(0, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bindings) == 0 {
			t.Fatalf("%q returned nothing", src)
		}
		c.Net().Settle()
		after := c.Net().Stats()
		return after.PerKind[pgrid.KindPage] - before.PerKind[pgrid.KindPage],
			after.MessagesSent - before.MessagesSent
	}

	fullPages, fullMsgs := pageMsgs(`SELECT ?n WHERE {(?p,'name',?n)}`)
	topkPages, topkMsgs := pageMsgs(`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`)
	if fullPages == 0 {
		t.Fatal("exhaustive paged scan pulled no pages — paging is not engaged")
	}
	if topkPages >= fullPages {
		t.Errorf("top-5 pulled %d pages, full scan %d — the stop must end the pull loop", topkPages, fullPages)
	}
	if topkMsgs >= fullMsgs {
		t.Errorf("top-5 cost %d messages, full scan %d", topkMsgs, fullMsgs)
	}
	t.Logf("page pulls: top-5 %d vs full %d (messages %d vs %d)", topkPages, fullPages, topkMsgs, fullMsgs)
}

// TestPagedScanConcurrentMatchesDeterministic: paging must stay
// invisible when partition responses and page pulls race in concurrent
// mode (CI runs this under -race).
func TestPagedScanConcurrentMatchesDeterministic(t *testing.T) {
	const q = `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 6`

	ref := pagedCluster(75, 0)
	loadPersons(ref, 76, 80)
	want, err := ref.QueryFrom(0, q)
	if err != nil {
		t.Fatal(err)
	}

	c := unistore.New(unistore.Config{
		Peers: 32, Seed: 75,
		PageSize:   2,
		Concurrent: true,
	})
	defer c.Close()
	loadPersons(c, 76, 80)
	got, err := c.QueryFrom(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows()) != fmt.Sprint(want.Rows()) {
		t.Fatalf("concurrent paged top-k diverged:\n got %v\nwant %v", got.Rows(), want.Rows())
	}
	c.Net().Quiesce()
	for i, p := range c.Peers() {
		if n := p.PendingOps(); n != 0 {
			t.Errorf("peer %d holds %d pending ops after paged queries", i, n)
		}
	}
}
