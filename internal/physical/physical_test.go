package physical_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
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

// testNet bundles an overlay with engines on every peer.
type testNet struct {
	net     *simnet.Network
	peers   []*pgrid.Peer
	engines []*Engine
	triples []triple.Triple
}

func buildNet(t testing.TB, n int, seed int64, reopt Reoptimizer) *testNet {
	return buildNetPaged(t, n, seed, reopt, 0)
}

// buildNetPaged is buildNet with peer-side range paging enabled at the
// given page size (0 = off) — the equivalence suite runs the same
// queries across page sizes to prove paging is invisible to results.
func buildNetPaged(t testing.TB, n int, seed int64, reopt Reoptimizer, pageSize int) *testNet {
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: seed})
	cfg := pgrid.DefaultConfig()
	cfg.PageSize = pageSize
	peers := overlay(net, n, 1, nil, cfg, seed)
	tn := &testNet{net: net, peers: peers}
	for _, p := range peers {
		tn.engines = append(tn.engines, NewEngine(p, reopt))
	}
	return tn
}

// overlay plans n partitions × replicas peers (adapted to samples, if
// any) and instantiates them on net, a fresh network built with seed.
func overlay(net *simnet.Network, n, replicas int, samples []keys.Key, cfg pgrid.Config, seed int64) []*pgrid.Peer {
	specs := pgrid.PlanSpecs(0, n, replicas, samples, cfg, seed)
	peers, err := pgrid.BuildFromSpecs(net, specs, specs, cfg)
	if err != nil {
		panic(err)
	}
	return peers
}

// buildNetLossy builds an overlay with replicated partitions over a
// lossy network, for best-effort behaviour tests.
func buildNetLossy(t testing.TB, n int, seed int64, loss float64) *testNet {
	net := simnet.New(simnet.Config{
		Latency: simnet.ConstantLatency(time.Millisecond), Seed: seed, LossRate: loss})
	peers := overlay(net, n, 2, nil, pgrid.DefaultConfig(), seed)
	tn := &testNet{net: net, peers: peers}
	for _, p := range peers {
		tn.engines = append(tn.engines, NewEngine(p, nil))
	}
	return tn
}

// load writes triples (with gram postings), waits for every ack and
// drains the network.
func (tn *testNet) load(ts []triple.Triple) {
	var hs []*pgrid.Handle
	for i, tr := range ts {
		p := tn.peers[i%len(tn.peers)]
		hs = append(hs, p.InsertTripleAcked(tr, 1, nil))
		hs = append(hs, InsertGrams(p, tr, 1)...)
	}
	for _, h := range hs {
		h.Wait(0)
	}
	tn.triples = append(tn.triples, ts...)
	tn.net.Settle()
}

func paperData() []triple.Triple {
	var ts []triple.Triple
	person := func(id, name string, age, pubs float64, titles ...string) {
		ts = append(ts,
			triple.T(id, "name", name),
			triple.TN(id, "age", age),
			triple.TN(id, "num_of_pubs", pubs))
		for _, title := range titles {
			ts = append(ts, triple.T(id, "has_published", title))
		}
	}
	pub := func(id, title, conf string) {
		ts = append(ts, triple.T(id, "title", title), triple.T(id, "published_in", conf))
	}
	conf := func(id, name, series string) {
		ts = append(ts, triple.T(id, "confname", name), triple.T(id, "series", series))
	}
	person("p1", "alice", 28, 10, "Similarity Queries")
	person("p2", "bob", 45, 25, "Progressive Skylines")
	person("p3", "carol", 25, 3, "Universal Storage")
	person("p4", "dave", 33, 25, "Mutant Plans")
	pub("u1", "Similarity Queries", "ICDE 2006")
	pub("u2", "Progressive Skylines", "ICDE 2005")
	pub("u3", "Universal Storage", "VLDB 2006")
	pub("u4", "Mutant Plans", "ICDE 2005")
	conf("c1", "ICDE 2006", "ICDE")
	conf("c2", "ICDE 2005", "ICDE")
	conf("c3", "VLDB 2006", "VLDB")
	return ts
}

// canon renders bindings order-independently for comparison.
func canon(bs []algebra.Binding) []string {
	var out []string
	for _, b := range bs {
		var vars []string
		for k := range b {
			vars = append(vars, k)
		}
		sort.Strings(vars)
		s := ""
		for _, v := range vars {
			s += v + "=" + b[v].Lexical() + ";"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// referenceRun executes the query with the in-memory oracle.
func referenceRun(t testing.TB, src string, data []triple.Triple) []algebra.Binding {
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lp, err := algebra.Build(q)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return algebra.Execute(lp, &algebra.MemSource{Triples: data})
}

// distributedRun executes the query over the overlay from a peer.
func distributedRun(t testing.TB, tn *testNet, engineIdx int, src string) ([]algebra.Binding, *Exec) {
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tn.engines[engineIdx].RunPlanCtx(context.Background(), plan)
}

// checkAgainstReference asserts the distributed engine matches the
// oracle for the query (ignoring result order unless ordered).
func checkAgainstReference(t *testing.T, tn *testNet, src string) {
	t.Helper()
	want := canon(referenceRun(t, src, tn.triples))
	for _, idx := range []int{0, len(tn.engines) / 2, len(tn.engines) - 1} {
		got, ex := distributedRun(t, tn, idx, src)
		if !ex.Done() {
			t.Fatalf("engine %d: query did not complete", idx)
		}
		if !reflect.DeepEqual(canon(got), want) {
			t.Fatalf("engine %d:\n got %v\nwant %v\nquery %s", idx, canon(got), want, src)
		}
	}
}

func TestSinglePatternQueries(t *testing.T) {
	tn := buildNet(t, 16, 1, nil)
	tn.load(paperData())
	for _, src := range []string{
		`SELECT ?n WHERE {(?p,'name',?n)}`,      // attribute range
		`SELECT ?a WHERE {('p1','age',?a)}`,     // OID lookup
		`SELECT ?p WHERE {(?p,'name','alice')}`, // exact A#v lookup
		`SELECT ?attr WHERE {('p2',?attr,?v)}`,  // schema-level
		`SELECT ?s WHERE {(?s,?a,'ICDE 2005')}`, // v-index lookup
		`SELECT * WHERE {(?s,?a,?v)}`,           // full broadcast
	} {
		checkAgainstReference(t, tn, src)
	}
}

func TestJoinQueries(t *testing.T) {
	tn := buildNet(t, 16, 2, nil)
	tn.load(paperData())
	for _, src := range []string{
		`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`,
		`SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
		`SELECT ?n WHERE {(?p,'name',?n) (?p,'has_published',?t)
			(?u,'title',?t) (?u,'published_in',?cn)
			(?c,'confname',?cn) (?c,'series','ICDE')}`,
	} {
		checkAgainstReference(t, tn, src)
	}
}

func TestPaperSkylineQueryDistributed(t *testing.T) {
	tn := buildNet(t, 32, 3, nil)
	tn.load(paperData())
	src := `SELECT ?n,?age,?cnt WHERE {
		(?p,'name',?n) (?p,'age',?age) (?p,'num_of_pubs',?cnt)
		(?p,'has_published',?t) (?u,'title',?t) (?u,'published_in',?cn)
		(?c,'confname',?cn) (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
	} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`
	checkAgainstReference(t, tn, src)
	// And the expected authors appear.
	got, _ := distributedRun(t, tn, 0, src)
	names := map[string]bool{}
	for _, b := range got {
		names[b["n"].Str] = true
	}
	if !names["alice"] || !names["dave"] || names["bob"] {
		t.Errorf("skyline authors = %v", names)
	}
}

func TestOrderLimitTopDistributed(t *testing.T) {
	tn := buildNet(t, 16, 4, nil)
	tn.load(paperData())
	got, _ := distributedRun(t, tn, 1,
		`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)} ORDER BY ?a LIMIT 2`)
	if len(got) != 2 || got[0]["n"].Str != "carol" || got[1]["n"].Str != "alice" {
		t.Errorf("youngest two = %v", got)
	}
	got, _ = distributedRun(t, tn, 2,
		`SELECT ?n,?c WHERE {(?p,'name',?n) (?p,'num_of_pubs',?c)} ORDER BY ?c DESC TOP 2`)
	if len(got) != 2 {
		t.Errorf("top-2 = %v", got)
	}
}

func TestShipModeMatchesFetchMode(t *testing.T) {
	src := `SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a >= 30}`
	stats := cost.DefaultStats(16)
	for _, mode := range []optimizer.Mode{optimizer.ModeFetch, optimizer.ModeShip, optimizer.ModeAuto} {
		opt := optimizer.New(stats, optimizer.Options{Mode: mode, UseQGram: true})
		tn := buildNet(t, 16, 5, opt)
		tn.load(paperData())
		q, err := vql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(plan)
		got, ex := tn.engines[0].RunPlanCtx(context.Background(), plan)
		if !ex.Done() {
			t.Fatalf("mode %v: did not complete", mode)
		}
		want := canon(referenceRun(t, src, tn.triples))
		if !reflect.DeepEqual(canon(got), want) {
			t.Errorf("mode %v: got %v want %v", mode, canon(got), want)
		}
	}
}

func TestMutantPlanActuallyMigrates(t *testing.T) {
	stats := cost.DefaultStats(32)
	opt := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeShip})
	tn := buildNet(t, 32, 6, opt)
	tn.load(paperData())
	q, err := vql.ParseQuery(`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(plan)
	shipSteps := 0
	for _, st := range plan.Steps {
		if st.Ship {
			shipSteps++
		}
	}
	if shipSteps == 0 {
		t.Fatal("ModeShip must mark steps for migration")
	}
	tn.net.ResetStats()
	got, ex := tn.engines[0].RunPlanCtx(context.Background(), plan)
	if !ex.Done() {
		t.Fatal("shipped plan did not complete")
	}
	if tn.net.Stats().PerKind[pgrid.KindApp] == 0 {
		t.Error("no app-routed plan migration observed")
	}
	want := canon(referenceRun(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`, tn.triples))
	if !reflect.DeepEqual(canon(got), want) {
		t.Errorf("migrated result mismatch: %v vs %v", canon(got), want)
	}
}

func TestQGramStrategyCorrect(t *testing.T) {
	stats := cost.DefaultStats(32)
	stats.TriplesPerAttr["series"] = 3
	opt := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: true})
	tn := buildNet(t, 32, 7, opt)
	tn.load(paperData())
	src := `SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Force the q-gram access path.
	forced := optimizer.New(stats, optimizer.Options{
		Mode: optimizer.ModeFetch, UseQGram: true, ForceStrategy: StratQGram})
	forced.Optimize(plan)
	if plan.Steps[0].Strat != StratQGram {
		t.Fatalf("forced strategy not applied: %v", plan.Steps[0].Strat)
	}
	got, ex := tn.engines[3].RunPlanCtx(context.Background(), plan)
	if !ex.Done() {
		t.Fatal("q-gram query did not complete")
	}
	want := canon(referenceRun(t, src, tn.triples))
	if !reflect.DeepEqual(canon(got), want) {
		t.Errorf("q-gram path: got %v want %v", canon(got), want)
	}
}

func TestQGramBeatsBroadcastOnMessages(t *testing.T) {
	// The E5 shape: at scale, the q-gram access path must use fewer
	// messages than broadcasting the similarity predicate.
	stats := cost.DefaultStats(64)
	tn := buildNet(t, 64, 8, nil)
	var data []triple.Triple
	for i := 0; i < 200; i++ {
		data = append(data, triple.T(fmt.Sprintf("c%d", i), "series",
			fmt.Sprintf("CONF%03d", i)))
	}
	data = append(data, triple.T("cx", "series", "ICDE"), triple.T("cy", "series", "ICDM"))
	tn.load(data)
	mkPlan := func(strat AccessStrategy) *Plan {
		q, err := vql.ParseQuery(`SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<2}`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: true, ForceStrategy: strat})
		opt.Optimize(plan)
		return plan
	}
	tn.net.ResetStats()
	gotQ, _ := tn.engines[0].RunPlanCtx(context.Background(), mkPlan(StratQGram))
	qMsgs := tn.net.Stats().MessagesSent
	tn.net.ResetStats()
	gotB, _ := tn.engines[0].RunPlanCtx(context.Background(), mkPlan(StratBroadcast))
	bMsgs := tn.net.Stats().MessagesSent
	if !reflect.DeepEqual(canon(gotQ), canon(gotB)) {
		t.Fatalf("access paths disagree: %v vs %v", canon(gotQ), canon(gotB))
	}
	if qMsgs >= bMsgs {
		t.Errorf("q-gram used %d messages, broadcast %d — index must win at 64 peers", qMsgs, bMsgs)
	}
	t.Logf("similarity messages: qgram=%d broadcast=%d", qMsgs, bMsgs)
}

func TestOptimizerReordersSelectiveFirst(t *testing.T) {
	stats := cost.DefaultStats(64)
	stats.TriplesPerAttr["name"] = 10000
	stats.TriplesPerAttr["age"] = 10000
	opt := optimizer.New(stats, optimizer.DefaultOptions())
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'name',?n) (?p,'age',30)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(plan)
	if plan.Steps[0].Strat != StratAVLookup {
		t.Errorf("selective exact lookup must run first: %s", plan)
	}
}

func TestDisabledOptimizerKeepsOrder(t *testing.T) {
	stats := cost.DefaultStats(16)
	opt := optimizer.New(stats, optimizer.Options{Disabled: true})
	tn := buildNet(t, 16, 9, opt)
	tn.load(paperData())
	src := `SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a > 20}`
	q, _ := vql.ParseQuery(src)
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(plan)
	for _, st := range plan.Steps {
		if st.Ship {
			t.Error("disabled optimizer must not ship")
		}
	}
	got, ex := tn.engines[0].RunPlanCtx(context.Background(), plan)
	if !ex.Done() {
		t.Fatal("did not complete")
	}
	want := canon(referenceRun(t, src, tn.triples))
	if !reflect.DeepEqual(canon(got), want) {
		t.Errorf("disabled optimizer result mismatch")
	}
}

func TestEmptyResultQueries(t *testing.T) {
	tn := buildNet(t, 16, 10, nil)
	tn.load(paperData())
	got, ex := distributedRun(t, tn, 0, `SELECT ?p WHERE {(?p,'name','nobody')}`)
	if !ex.Done() || len(got) != 0 {
		t.Errorf("empty query: done=%v n=%d", ex.Done(), len(got))
	}
	got, ex = distributedRun(t, tn, 0,
		`SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a > 200}`)
	if !ex.Done() || len(got) != 0 {
		t.Errorf("empty filter query: done=%v n=%d", ex.Done(), len(got))
	}
}

func TestElapsedAndStats(t *testing.T) {
	tn := buildNet(t, 16, 11, nil)
	tn.load(paperData())
	_, ex := distributedRun(t, tn, 0, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if ex.Elapsed() <= 0 {
		t.Error("simulated latency must be positive")
	}
	if ex.OpsIssued() == 0 {
		t.Error("ops counter must advance")
	}
}

func TestCompileRejectsNonLeftDeep(t *testing.T) {
	bad := &algebra.Join{
		L: &algebra.PatternScan{Pat: vql.Pattern{S: vql.V("a"), A: vql.Lit("x"), V: vql.V("b")}},
		R: &algebra.Join{
			L:  &algebra.PatternScan{Pat: vql.Pattern{S: vql.V("c"), A: vql.Lit("y"), V: vql.V("d")}},
			R:  &algebra.PatternScan{Pat: vql.Pattern{S: vql.V("e"), A: vql.Lit("z"), V: vql.V("f")}},
			On: nil,
		},
	}
	if _, err := Compile(bad); err == nil {
		t.Error("bushy tree must be rejected")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s := StratAuto; s <= StratQGram; s++ {
		if s.String() == "" {
			t.Errorf("strategy %d has no name", s)
		}
	}
}

func BenchmarkDistributedTwoPatternJoin(b *testing.B) {
	tn := buildNet(b, 32, 12, nil)
	var data []triple.Triple
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("p%d", i)
		data = append(data,
			triple.T(id, "name", fmt.Sprintf("person%03d", i)),
			triple.TN(id, "age", float64(20+i%60)))
	}
	tn.load(data)
	q, err := vql.ParseQuery(`SELECT ?n WHERE {(?p,'age',30) (?p,'name',?n)}`)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.engines[i%32].RunPlanCtx(context.Background(), plan)
	}
}
