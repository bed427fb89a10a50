package pgrid

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// entryKeys canonicalizes a result entry set for comparison.
func entryKeys(es []store.Entry) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.Key.String()+"|"+e.Triple.Val.Lexical())
	}
	sort.Strings(out)
	return out
}

// TestPagedRangeEquivalence: a paged shower must return exactly the
// entries of the monolithic one, release all shares (Complete), and
// actually serve pages.
func TestPagedRangeEquivalence(t *testing.T) {
	load := func(pageSize int) ([]*Peer, func()) {
		net := newNet(61)
		cfg := DefaultConfig()
		cfg.PageSize = pageSize
		peers := build(net, 61, 16, 1, cfg)
		var ts []triple.Triple
		for i := 0; i < 50; i++ {
			ts = append(ts, triple.TN(fmt.Sprintf("pg%02d", i), "age", float64(i%25)))
		}
		write(net, peers, ts...)
		return peers, func() {}
	}

	ref, _ := load(0)
	want := entryKeys(ref[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait).Entries)
	if len(want) == 0 {
		t.Fatal("reference scan returned nothing")
	}
	for _, ps := range []int{1, 3, 7} {
		peers, _ := load(ps)
		res := peers[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
		if !res.Complete {
			t.Fatalf("PageSize=%d: shares lost, scan incomplete", ps)
		}
		got := entryKeys(res.Entries)
		if len(got) != len(want) {
			t.Fatalf("PageSize=%d: %d entries, want %d", ps, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("PageSize=%d: entry %d = %s, want %s", ps, i, got[i], want[i])
			}
		}
		pages := 0
		for _, p := range peers {
			pages += p.Stats().PagesServed
		}
		if pages == 0 {
			t.Errorf("PageSize=%d: no pages served", ps)
		}
	}
}

// TestPagedResponseBounded: with PageSize=1 every paged response
// carries at most one entry, so no response message can grow with the
// partition — the bounded-response-size guarantee.
func TestPagedResponseBounded(t *testing.T) {
	net := newNet(62)
	cfg := DefaultConfig()
	cfg.PageSize = 1
	peers := build(net, 62, 4, 1, cfg) // few peers → fat partitions
	var ts []triple.Triple
	for i := 0; i < 30; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("pb%02d", i), "age", float64(i)))
	}
	write(net, peers, ts...)
	net.ResetStats()
	res := peers[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
	if !res.Complete || len(res.Entries) != 30 {
		t.Fatalf("paged fat-partition scan: complete=%v n=%d", res.Complete, len(res.Entries))
	}
	// One entry ≈ well under 300 bytes; a monolithic response of a fat
	// partition would be thousands.
	if max := net.Stats().MaxSizePerKind[KindResponse]; max > 300 {
		t.Errorf("paged response reached %dB; pages of 1 entry must stay small", max)
	}
}

// TestPagedScanStableUnderMutation: the page cursor is key-aligned,
// so an entry applied to the serving peer BETWEEN page pulls — sorting
// before the cursor — must not duplicate or drop any entry that was
// present when the scan began (a positional offset cursor would
// re-send the entry the insertion shifted past the offset).
func TestPagedScanStableUnderMutation(t *testing.T) {
	net := newNet(65)
	cfg := DefaultConfig()
	cfg.PageSize = 2
	peers := build(net, 65, 4, 1, cfg)
	var ts []triple.Triple
	for i := 0; i < 12; i++ {
		ts = append(ts, triple.TN(fmt.Sprintf("mu%02d", i), "age", float64(10+i)))
	}
	write(net, peers, ts...)

	h := peers[0].RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil)
	// Step until at least two pages have been pulled, then mutate the
	// serving peer's store with an entry sorting before the cursor.
	for net.Stats().PerKind[KindPage] < 2 && net.Step() {
	}
	if net.Stats().PerKind[KindPage] < 2 {
		t.Fatal("scan finished before any page pull; lower PageSize")
	}
	early := triple.TN("mu-early", "age", float64(1)) // sorts before every age
	e := store.Entry{Kind: triple.ByAV, Key: triple.IndexKey(early, triple.ByAV),
		Triple: early, Version: 1}
	for _, p := range peers {
		if p.Responsible(e.Key) {
			p.Store().Apply(e)
		}
	}
	res := h.Wait(5 * time.Minute)
	if !res.Complete {
		t.Fatal("mutated paged scan incomplete")
	}
	seen := map[string]int{}
	for _, en := range res.Entries {
		seen[en.Triple.OID]++
	}
	for i := 0; i < 12; i++ {
		oid := fmt.Sprintf("mu%02d", i)
		if seen[oid] != 1 {
			t.Errorf("entry %s appeared %d times, want exactly 1", oid, seen[oid])
		}
	}
	if seen["mu-early"] > 1 {
		t.Errorf("concurrent insert appeared %d times", seen["mu-early"])
	}
}

// TestMultiLookupMatchesIndividualLookups: the batched multi-lookup
// must return exactly the union of per-key lookups, cold and warm.
func TestMultiLookupMatchesIndividualLookups(t *testing.T) {
	net := newNet(63)
	peers := build(net, 63, 16, 1, DefaultConfig())
	var ks []keys.Key
	var ts []triple.Triple
	for i := 0; i < 20; i++ {
		tr := triple.TN(fmt.Sprintf("%c-ml%02d", 'a'+i, i), "age", float64(i))
		ts = append(ts, tr)
		ks = append(ks, triple.OIDKey(tr.OID))
	}
	write(net, peers, ts...)

	q := peers[0]
	var want []store.Entry
	for _, k := range ks {
		res := q.Lookup(triple.ByOID, []keys.Key{k}, nil).Wait(opWait)
		if !res.Complete {
			t.Fatalf("individual lookup incomplete for %s", k)
		}
		want = append(want, res.Entries...)
	}
	for round := 0; round < 2; round++ { // round 1 runs on a warm cache
		h := q.Lookup(triple.ByOID, ks, nil)
		res := h.Wait(5 * time.Minute)
		if !res.Complete {
			t.Fatalf("round %d: multi-lookup incomplete: %d/%d responses", round, res.Responses, len(ks))
		}
		got := entryKeys(res.Entries)
		if len(got) != len(entryKeys(want)) {
			t.Fatalf("round %d: %d entries, want %d", round, len(got), len(want))
		}
	}
	if q.Stats().RouteCacheHits == 0 {
		t.Error("warm multi-lookup round never hit the cache")
	}
}

// TestMultiLookupBatchesMessages: a warm multi-lookup must cost far
// fewer messages than k individually routed probes.
func TestMultiLookupBatchesMessages(t *testing.T) {
	net := newNet(64)
	peers := build(net, 64, 32, 1, DefaultConfig())
	var ks []keys.Key
	var ts []triple.Triple
	for i := 0; i < 24; i++ {
		tr := triple.TN(fmt.Sprintf("%c-mb%02d", 'a'+i, i), "age", float64(i))
		ts = append(ts, tr)
		ks = append(ks, triple.OIDKey(tr.OID))
	}
	write(net, peers, ts...)
	q := peers[0]

	before := net.Stats().MessagesSent
	q.Lookup(triple.ByOID, ks, nil).Wait(5 * time.Minute)
	cold := net.Stats().MessagesSent - before

	before = net.Stats().MessagesSent
	q.Lookup(triple.ByOID, ks, nil).Wait(5 * time.Minute)
	warm := net.Stats().MessagesSent - before

	if warm >= cold {
		t.Errorf("warm batched multi-lookup cost %d messages, cold cost %d — batching must help", warm, cold)
	}
	// Warm cost is bounded by a request+response pair per distinct
	// responsible peer, which cannot exceed 2·len(ks) and in practice
	// is far below the cold routed cost.
	if warm > 2*len(ks) {
		t.Errorf("warm multi-lookup cost %d messages for %d keys", warm, len(ks))
	}
	t.Logf("multi-lookup messages: cold=%d warm=%d (k=%d)", cold, warm, len(ks))
}
