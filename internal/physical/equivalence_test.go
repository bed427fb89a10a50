package physical_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"unistore/internal/algebra"
	"unistore/internal/cost"
	"unistore/internal/keys"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	. "unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// This file property-tests the central correctness contract: for any
// query the distributed engine must return exactly the bindings of the
// in-memory reference executor, under every optimizer mode.

// randCorpus builds a random multi-entity corpus with joinable links.
func randCorpus(rng *rand.Rand, persons int) []triple.Triple {
	var ts []triple.Triple
	groups := []string{"db", "os", "net"}
	for i := 0; i < persons; i++ {
		id := fmt.Sprintf("p%02d", i)
		ts = append(ts,
			triple.T(id, "name", fmt.Sprintf("n%02d", i)),
			triple.TN(id, "age", float64(20+rng.Intn(40))),
			triple.T(id, "group", groups[rng.Intn(len(groups))]))
		if rng.Intn(2) == 0 {
			ts = append(ts, triple.TN(id, "score", float64(rng.Intn(10))))
		}
		// Link to another person (friend-of-a-friend style, Fig. 3's
		// has_friend edge).
		ts = append(ts, triple.T(id, "friend", fmt.Sprintf("n%02d", rng.Intn(persons))))
	}
	return ts
}

// randQuery composes a random query over the corpus's schema.
func randQuery(rng *rand.Rand) string {
	patterns := []string{
		`(?p,'name',?n)`,
		`(?p,'age',?a)`,
		`(?p,'group',?g)`,
		`(?p,'score',?s)`,
		`(?p,'friend',?f)`,
		`(?q,'name',?f)`, // join person→friend name
		fmt.Sprintf(`(?p,'group','%s')`, []string{"db", "os", "net"}[rng.Intn(3)]),
		fmt.Sprintf(`(?p,'name','n%02d')`, rng.Intn(20)),
	}
	n := 1 + rng.Intn(4)
	picked := map[int]bool{}
	where := ""
	usesVar := map[string]bool{"p": true}
	for len(picked) < n {
		i := rng.Intn(len(patterns))
		if picked[i] {
			continue
		}
		picked[i] = true
		where += " " + patterns[i]
		switch i {
		case 0:
			usesVar["n"] = true
		case 1:
			usesVar["a"] = true
		case 2:
			usesVar["g"] = true
		case 3:
			usesVar["s"] = true
		case 4:
			usesVar["f"] = true
		case 5:
			usesVar["q"] = true
			usesVar["f"] = true
		}
	}
	if usesVar["a"] && rng.Intn(2) == 0 {
		where += fmt.Sprintf(" FILTER ?a %s %d",
			[]string{"<", "<=", ">", ">=", "!="}[rng.Intn(5)], 25+rng.Intn(30))
	}
	if usesVar["n"] && rng.Intn(4) == 0 {
		where += " FILTER edist(?n,'n05')<2"
	}
	q := "SELECT * WHERE {" + where + "}"
	if usesVar["a"] && rng.Intn(3) == 0 {
		q += " ORDER BY ?a"
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(5))
		}
	}
	return q
}

func TestRandomQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	corpus := randCorpus(rng, 20)
	stats := cost.DefaultStats(16)
	modes := []optimizer.Options{
		{Mode: optimizer.ModeFetch, UseQGram: true},
		{Mode: optimizer.ModeShip, UseQGram: true},
		{Mode: optimizer.ModeAuto, UseQGram: true, ShipThreshold: 8},
		{Disabled: true},
	}
	// Every mode runs with a different peer-side page size (0 = off, 1
	// = maximally paged), so the whole suite also proves that probe
	// batching (always on, via the routing caches warmed as queries
	// run) and response paging never change any result.
	pageSizes := []int{1, 3, 0, 2}
	nets := make([]*testNet, len(modes))
	for mi, m := range modes {
		nets[mi] = buildNetPaged(t, 16, int64(100+mi), optimizer.New(stats, m), pageSizes[mi])
		nets[mi].load(corpus)
	}
	for iter := 0; iter < 60; iter++ {
		src := randQuery(rng)
		q, err := vql.ParseQuery(src)
		if err != nil {
			t.Fatalf("generated query invalid: %q: %v", src, err)
		}
		ref := referenceRun(t, src, corpus)
		want := canon(ref)
		ordered := len(q.OrderBy) > 0 && q.Limit > 0
		var full []string // the reference result without LIMIT
		if ordered {
			full = canon(referenceRun(t, src[:strings.LastIndex(src, " LIMIT ")], corpus))
		}
		for mi := range modes {
			got, ex := distributedRun(t, nets[mi], iter%16, src)
			if !ex.Done() {
				t.Fatalf("mode %d: %q did not complete", mi, src)
			}
			g := canon(got)
			if ordered {
				// LIMIT after ORDER BY may break ties at the cut
				// differently, so rows may differ from the reference's;
				// their sort keys may not.
				if err := checkTopK(got, ref, full); err != nil {
					t.Fatalf("mode %d: %q: %v", mi, src, err)
				}
				continue
			}
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("mode %d: %q\n got %v\nwant %v", mi, src, g, want)
			}
		}
	}
}

// checkTopK is the tie-aware oracle for `ORDER BY ?a LIMIT k`: got
// must hold as many rows as the reference top k ref, each a row of the
// unlimited reference result full (counted as a multiset), and carry
// exactly ref's multiset of ?a values.
func checkTopK(got, ref []algebra.Binding, full []string) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%d rows, want %d", len(got), len(ref))
	}
	left := map[string]int{}
	for _, s := range full {
		left[s]++
	}
	for _, s := range canon(got) {
		if left[s] == 0 {
			return fmt.Errorf("row %s is not in the unlimited reference result (or repeats more often)", s)
		}
		left[s]--
	}
	sortKeys := func(bs []algebra.Binding) []string {
		var out []string
		for _, b := range bs {
			out = append(out, b["a"].Lexical())
		}
		sort.Strings(out)
		return out
	}
	if g, w := sortKeys(got), sortKeys(ref); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("?a values %v, want the reference top k %v", g, w)
	}
	return nil
}

// TestProbeCapFallback: when a subject-bound OID-probe step binds
// more distinct subjects than the probe cap (64), the stage must
// escalate to its attribute's region scan instead of issuing a probe
// per subject — visible in its trace stage label — and stay exact.
func TestProbeCapFallback(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 77})
	cfg := pgrid.DefaultConfig()
	cfg.Tracing = true
	tn := &testNet{net: net, peers: overlay(net, 16, 1, nil, cfg, 77)}
	for _, p := range tn.peers {
		tn.engines = append(tn.engines, NewEngine(p, nil))
	}
	var corpus []triple.Triple
	for i := 0; i < 150; i++ { // > probeCap (64) distinct subjects
		id := fmt.Sprintf("x%03d", i)
		corpus = append(corpus,
			triple.TN(id, "uid", float64(i)),
			triple.T(id, "tag", fmt.Sprintf("t%03d", i)))
	}
	tn.load(corpus)
	src := `SELECT ?p,?u,?g WHERE {(?p,'uid',?u) (?p,'tag',?g)}`
	want := canon(referenceRun(t, src, corpus))
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Steps[1].Strat = StratOIDLookup // probe the 150 subjects ?p binds
	got, ex := tn.engines[0].RunPlanCtx(context.Background(), plan)
	if !ex.Done() {
		t.Fatal("did not complete")
	}
	if !reflect.DeepEqual(canon(got), want) {
		t.Fatalf("probe-cap path diverged: %d vs %d results", len(got), len(want))
	}
	var stages []string
	for _, sp := range ex.Trace().Spans {
		if sp.Kind == "stage" {
			stages = append(stages, sp.Stage)
		}
	}
	if !slices.Contains(stages, "s1:oid-lookup>scan") {
		t.Errorf("stage spans %v: the OID probes did not escalate to the region scan", stages)
	}
}

// TestLossyNetworkBestEffort: with 5% loss the engine must still
// terminate and return a subset of the reference results.
func TestLossyNetworkBestEffort(t *testing.T) {
	tn := buildNetLossy(t, 16, 31, 0.05)
	corpus := randCorpus(rand.New(rand.NewSource(5)), 15)
	tn.load(corpus)
	src := `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`
	fullSet := map[string]bool{}
	for _, s := range canon(referenceRun(t, src, corpus)) {
		fullSet[s] = true
	}
	got, ex := distributedRun(t, tn, 3, src)
	if !ex.Done() {
		t.Fatal("lossy query did not terminate")
	}
	for _, s := range canon(got) {
		if !fullSet[s] {
			t.Fatalf("lossy run fabricated result %q", s)
		}
	}
	if len(got) == 0 {
		t.Error("5% loss should not wipe out all results")
	}
	t.Logf("lossy run returned %d/%d results", len(got), len(fullSet))
}

// TestPrefixPushdownCorrectAndCheaper: startswith pushdown must return
// the reference results with fewer messages than the full range scan.
func TestPrefixPushdownCorrectAndCheaper(t *testing.T) {
	stats := cost.DefaultStats(64)
	opt := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch})
	var corpus []triple.Triple
	for i := 0; i < 200; i++ {
		corpus = append(corpus, triple.T(fmt.Sprintf("b%03d", i), "title",
			fmt.Sprintf("%c-paper-%03d", 'a'+i%26, i)))
	}
	// Pruning only matters when the attribute's data spans several
	// partitions, so build the trie adapted to this corpus (on a
	// peer-balanced trie the whole attribute fits one partition and
	// both access paths cost the same).
	var samples []keys.Key
	for _, tr := range corpus {
		samples = append(samples, triple.IndexKey(tr, triple.ByAV))
	}
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 88})
	peers := overlay(net, 64, 1, samples, pgrid.DefaultConfig(), 88)
	tn := &testNet{net: net, peers: peers}
	for _, p := range peers {
		tn.engines = append(tn.engines, NewEngine(p, opt))
	}
	tn.load(corpus)
	src := `SELECT ?t WHERE {(?p,'title',?t) FILTER startswith(?t,'m-paper')}`
	want := canon(referenceRun(t, src, corpus))

	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	// With pushdown.
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(plan)
	if plan.Steps[0].ValuePrefix == "" {
		t.Fatal("pushdown not applied")
	}
	tn.net.ResetStats()
	got, _ := tn.engines[0].RunPlanCtx(context.Background(), plan)
	withMsgs := tn.net.Stats().MessagesSent
	if !reflect.DeepEqual(canon(got), want) {
		t.Fatalf("pushdown results: %v want %v", canon(got), want)
	}
	// Without pushdown (manually cleared).
	plan2, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(plan2)
	plan2.Steps[0].ValuePrefix = ""
	tn.net.ResetStats()
	got2, _ := tn.engines[0].RunPlanCtx(context.Background(), plan2)
	withoutMsgs := tn.net.Stats().MessagesSent
	if !reflect.DeepEqual(canon(got2), want) {
		t.Fatalf("full-scan results diverged")
	}
	if withMsgs >= withoutMsgs {
		t.Errorf("pushdown %d msgs, full scan %d — prefix routing must prune", withMsgs, withoutMsgs)
	}
	t.Logf("prefix search: %d msgs vs %d full scan", withMsgs, withoutMsgs)
}
