package optimizer_test

import (
	"testing"

	"unistore/internal/cost"
	"unistore/internal/optimizer"
	"unistore/internal/physical"
	"unistore/internal/vql"
)

func compile(t *testing.T, src string) *physical.Plan {
	t.Helper()
	q, err := vql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := physical.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizePrefersExactLookups(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(256), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n) (?p,'email','x@y')}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratAVLookup {
		t.Errorf("exact A#v lookup must lead: %s", p)
	}
	if len(p.Steps[1].JoinOn) != 1 || p.Steps[1].JoinOn[0] != "p" {
		t.Errorf("join vars recomputed wrong: %+v", p.Steps[1])
	}
}

func TestOptimizeKeepsFiltersApplicable(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a > 30 FILTER length(?n) > 3}`)
	o.Optimize(p)
	// Every filter must sit on a step whose prior vars cover it.
	bound := map[string]bool{}
	for _, st := range p.Steps {
		for _, v := range st.Pat.Vars() {
			bound[v] = true
		}
		for _, f := range st.Filters {
			covered := true
			for _, v := range exprVars(f) {
				if !bound[v] {
					covered = false
				}
			}
			if !covered {
				t.Errorf("filter %s attached before its vars bind: %s", f, p)
			}
		}
	}
	total := 0
	for _, st := range p.Steps {
		total += len(st.Filters)
	}
	if total != 2 {
		t.Errorf("filters lost or duplicated: %d", total)
	}
}

func exprVars(e vql.Expr) []string {
	var out []string
	var walkOp func(o vql.Operand)
	walkOp = func(o vql.Operand) {
		switch x := o.(type) {
		case vql.VarOperand:
			out = append(out, x.Name)
		case vql.FuncOperand:
			for _, a := range x.Args {
				walkOp(a)
			}
		}
	}
	switch x := e.(type) {
	case vql.Cmp:
		walkOp(x.L)
		walkOp(x.R)
	case vql.BoolFunc:
		for _, a := range x.Args {
			walkOp(a)
		}
	}
	return out
}

func TestModeShipMarksSteps(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Mode: optimizer.ModeShip})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	o.Optimize(p)
	if !p.Steps[1].Ship {
		t.Errorf("ModeShip must mark later steps: %s", p)
	}
	if p.Steps[0].Ship {
		t.Error("first step never ships")
	}
}

func TestModeFetchNeverShips(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Mode: optimizer.ModeFetch})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	o.Optimize(p)
	for _, st := range p.Steps {
		if st.Ship {
			t.Errorf("ModeFetch shipped: %s", p)
		}
	}
}

func TestForceStrategyOverrides(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{
		Mode: optimizer.ModeFetch, ForceStrategy: physical.StratBroadcast})
	p := compile(t, `SELECT ?n WHERE {(?p,'name',?n)}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratBroadcast {
		t.Errorf("force ignored: %s", p)
	}
}

func TestQGramChosenWhenCheaper(t *testing.T) {
	stats := cost.DefaultStats(512)
	stats.TriplesPerAttr["series"] = 5000
	stats.TotalTriples = 10000
	o := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: true})
	p := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`)
	o.Optimize(p)
	if p.Steps[0].Strat != physical.StratQGram {
		t.Errorf("q-gram path not chosen on a large network: %s", p)
	}
	// Without the index enabled, the range scan remains.
	o2 := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: false})
	p2 := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`)
	o2.Optimize(p2)
	if p2.Steps[0].Strat == physical.StratQGram {
		t.Error("q-gram path chosen despite UseQGram=false")
	}
}

func TestDisabledOptimizerPreservesCompiledOrder(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{Disabled: true})
	p := compile(t, `SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a)}`)
	first := p.Steps[0].Pat.String()
	o.Optimize(p)
	if p.Steps[0].Pat.String() != first {
		t.Error("disabled optimizer reordered steps")
	}
}

func TestSimsAttachOnce(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?sr WHERE {(?c,'series',?sr) (?c,'confname',?cn) FILTER edist(?sr,'ICDE')<3}`)
	o.Optimize(p)
	total := 0
	for _, st := range p.Steps {
		total += len(st.Sims)
	}
	if total != 1 {
		t.Errorf("similarity predicate attached %d times: %s", total, p)
	}
}

func TestPrefixPushdown(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.DefaultOptions())
	p := compile(t, `SELECT ?t WHERE {(?p,'title',?t) FILTER startswith(?t,'Paper 001')}`)
	o.Optimize(p)
	if p.Steps[0].ValuePrefix != "Paper 001" {
		t.Errorf("prefix not pushed down: %+v", p.Steps[0])
	}
	// The filter stays attached for re-checking.
	if len(p.Steps[0].Filters) != 1 {
		t.Errorf("filter lost: %+v", p.Steps[0])
	}
	// Not applicable when the predicate targets another variable.
	p2 := compile(t, `SELECT ?t WHERE {(?p,'title',?t) (?p,'name',?n) FILTER startswith(?n,'x')}`)
	o.Optimize(p2)
	for _, st := range p2.Steps {
		if st.Pat.A.Val.Str == "title" && st.ValuePrefix != "" {
			t.Errorf("prefix wrongly pushed to title scan: %+v", st)
		}
	}
}

// TestAggStrategyChoice: the cost model must push aggregation down
// when groups are much smaller than rows, keep the centralized stream
// for a small rank-fed group limit, and honor forced choices.
func TestAggStrategyChoice(t *testing.T) {
	stats := cost.DefaultStats(64)
	stats.TriplesPerAttr["group"] = 5000
	stats.TotalTriples = 20000
	stats.PageSize = 8
	grouped := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g`
	ranked := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g)} GROUP BY ?g ORDER BY ?g LIMIT 2`
	joined := `SELECT ?g, count(*) AS ?n WHERE {(?p,'group',?g) (?p,'age',?a)} GROUP BY ?g`

	o := optimizer.New(stats, optimizer.DefaultOptions())
	if p := o.Optimize(compile(t, grouped)); !p.Tail.AggPushdown {
		t.Error("auto: exhaustive group-by must push down")
	}
	if p := o.Optimize(compile(t, ranked)); p.Tail.AggPushdown {
		t.Error("auto: small rank-fed group limit must stay centralized")
	}
	if p := o.Optimize(compile(t, joined)); p.Tail.AggPushdown {
		t.Error("a join below the aggregation cannot push down")
	}
	forcedC := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, Agg: optimizer.AggCentralized})
	if p := forcedC.Optimize(compile(t, grouped)); p.Tail.AggPushdown {
		t.Error("forced centralized ignored")
	}
	// A group-key ordering the scan CANNOT stream (order var is the
	// subject, scan key order is the value) must not earn the
	// centralized limit discount — pushdown still wins.
	unstreamable := `SELECT ?p, count(*) AS ?n WHERE {(?p,'score',?s)} GROUP BY ?p ORDER BY ?p LIMIT 2`
	if p := o.Optimize(compile(t, unstreamable)); !p.Tail.AggPushdown {
		t.Error("auto: unstreamable group ordering must not discount the centralized scan")
	}
	forcedP := optimizer.New(stats, optimizer.Options{Mode: optimizer.ModeFetch, Agg: optimizer.AggPushdown})
	if p := forcedP.Optimize(compile(t, grouped)); !p.Tail.AggPushdown {
		t.Error("forced pushdown ignored")
	}
	if p := forcedP.Optimize(compile(t, joined)); p.Tail.AggPushdown {
		t.Error("forced pushdown must still respect feasibility")
	}
}

// TestSubjectJoinPricedChoice: a step joined on its subject alone is
// planned as batched OID probes when warm routing caches make them
// cheaper than the attribute's region scan, and as the shipped region
// scan when the caches are cold; ModeShip keeps the region, which its
// mutant plan migrates to, and a probe step never ships.
func TestSubjectJoinPricedChoice(t *testing.T) {
	const src = `SELECT ?n WHERE {(?p,'email','x@y') (?p,'name',?n)}`
	for _, tc := range []struct {
		name  string
		mode  optimizer.Mode
		hit   float64
		strat physical.AccessStrategy
		ship  bool
	}{
		{"cold auto", optimizer.ModeAuto, 0, physical.StratAVRange, true},
		{"warm auto", optimizer.ModeAuto, 1, physical.StratOIDLookup, false},
		{"warm fetch", optimizer.ModeFetch, 1, physical.StratOIDLookup, false},
		{"warm ship", optimizer.ModeShip, 1, physical.StratAVRange, true},
	} {
		stats := cost.DefaultStats(64)
		stats.TriplesPerAttr["email"] = 300 // three bindings expected
		stats.TriplesPerAttr["name"] = 1000
		stats.TotalTriples = 10000
		stats.CacheHitRate = tc.hit
		opt := optimizer.DefaultOptions()
		opt.Mode = tc.mode
		p := optimizer.New(stats, opt).Optimize(compile(t, src))
		st := p.Steps[1]
		if st.Strat != tc.strat || st.Ship != tc.ship {
			t.Errorf("%s: %s, want %s with ship=%v", tc.name, p, tc.strat, tc.ship)
		}
	}
}

// TestForcedOIDLookupNeedsASubject: forcing OID lookups leaves a step
// whose subject is neither ground nor bound upstream on its shape
// default, which is the only way it can find anything.
func TestForcedOIDLookupNeedsASubject(t *testing.T) {
	o := optimizer.New(cost.DefaultStats(64), optimizer.Options{
		Mode: optimizer.ModeFetch, ForceStrategy: physical.StratOIDLookup})
	p := o.Optimize(compile(t, `SELECT ?n WHERE {(?p,'email','x@y') (?p,'name',?n)}`))
	if p.Steps[0].Strat != physical.StratAVLookup || p.Steps[1].Strat != physical.StratOIDLookup {
		t.Errorf("forced OID lookup: %s", p)
	}
}
