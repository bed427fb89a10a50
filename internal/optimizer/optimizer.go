// Package optimizer implements UniStore's cost-based plan selection:
// choosing among the physical implementations of each logical operator
// (lookup vs. range vs. broadcast vs. q-gram access paths), ordering
// the join steps by estimated cost, and deciding where mutant plans
// migrate. Because the same optimizer runs again at every peer hosting
// a migrated plan — with that peer's own statistics — query processing
// is adaptive, as §2 of the paper describes.
//
// Costs are startup-vs-total aware: under a streamable LIMIT/top-k
// tail the final operator is priced at what the early-terminating
// streaming executor will actually pay (cost.Estimate.ScaledToLimit),
// steering plans toward access paths that produce their first tuples
// cheaply instead of ones that must materialize before emitting.
package optimizer

import (
	"math"
	"slices"

	"unistore/internal/cost"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// Mode controls mutant plan migration.
type Mode int

// Modes.
const (
	// ModeAuto ships the plan when intermediate results are small
	// enough that moving the plan beats moving the data.
	ModeAuto Mode = iota
	// ModeFetch always pulls data to the coordinating peer.
	ModeFetch
	// ModeShip always migrates the plan to the next step's region.
	ModeShip
)

// AggChoice selects the aggregation execution strategy.
type AggChoice int

// Aggregation strategies.
const (
	// AggAuto prices pushdown (groups shipped) against centralized
	// (rows shipped) and picks the cheaper.
	AggAuto AggChoice = iota
	// AggPushdown forces peer-side partial aggregation wherever the
	// plan shape allows it.
	AggPushdown
	// AggCentralized forces the centralized fallback — rows stream to
	// the coordinator and aggregate there (the benchmarks' baseline).
	AggCentralized
)

// Options tune the optimizer; the demo's "influencing the integrated
// optimizer" (§4) maps to these knobs.
type Options struct {
	Mode Mode
	// Agg selects pushdown vs centralized aggregation (default: cost
	// decides).
	Agg AggChoice
	// UseQGram enables the q-gram access path for similarity
	// predicates (requires the gram index to be populated).
	UseQGram bool
	// Disabled turns cost-based reordering off: the plan executes in
	// compiled order with shape-default strategies.
	Disabled bool
	// ForceStrategy overrides the strategy of every step it can apply
	// to (experiment plan variants). StratAuto means no override.
	ForceStrategy physical.AccessStrategy
	// ShipThreshold is the binding count below which ModeAuto ships.
	ShipThreshold int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Mode: ModeAuto, UseQGram: true, ShipThreshold: 64}
}

// Optimizer holds statistics and options; it implements
// physical.Reoptimizer.
type Optimizer struct {
	Stats *cost.Stats
	Opt   Options
}

// New creates an optimizer over a statistics snapshot.
func New(stats *cost.Stats, opt Options) *Optimizer {
	if opt.ShipThreshold == 0 {
		opt.ShipThreshold = 64
	}
	return &Optimizer{Stats: stats, Opt: opt}
}

// Optimize rewrites a compiled plan in place: strategy selection, join
// ordering and ship decisions. It returns the plan for chaining.
// When the tail is a streamable LIMIT/top-k, operator costs are
// repriced with their startup-vs-total split (cost.ScaledToLimit), so
// plans whose expensive operators can terminate early — range scans
// over access paths that must materialize before producing anything —
// win ties against startup-heavy alternatives like the q-gram path.
func (o *Optimizer) Optimize(p *physical.Plan) *physical.Plan {
	p.Steps = o.order(p.Steps, 0, streamableLimit(p.Tail))
	o.chooseAggStrategy(p)
	return p
}

// EstimatePlan prices an already-optimized plan without reordering it:
// the sequential composition of each step's estimate, with the final
// step repriced for early termination on the tail's streamable limit.
// It is the observability-side readout of the same model Optimize
// chooses by — slow-query logs print it next to a query's observed
// messages and latency, so model drift is visible where it matters.
func (o *Optimizer) EstimatePlan(p *physical.Plan) cost.Estimate {
	limit := streamableLimit(p.Tail)
	var total cost.Estimate
	card := 1.0
	for i, st := range p.Steps {
		stepLimit := 0
		if i == len(p.Steps)-1 {
			stepLimit = limit
		}
		est := o.estimate(st.Strat, st, card).ScaledToLimit(stepLimit)
		if i == 0 {
			total = est
		} else {
			total = total.Plus(est)
		}
		card = math.Max(est.Results, 1)
	}
	return total
}

// chooseAggStrategy decides pushdown vs centralized for an aggregating
// tail by pricing groups-shipped against rows-shipped. Pushdown ships
// at most min(groups, partition rows) states per partition; the
// centralized row stream pays for every row but can terminate early
// when the ordering key is the group variable the scan streams in key
// order (the rank-fed group-by), which is the one shape where rows can
// beat states. Forced choices short-circuit the pricing.
func (o *Optimizer) chooseAggStrategy(p *physical.Plan) {
	if !p.Tail.HasAgg() {
		return
	}
	switch o.Opt.Agg {
	case AggPushdown:
		p.Tail.AggPushdown = physical.AggPushdownable(p)
		return
	case AggCentralized:
		p.Tail.AggPushdown = false
		return
	}
	if o.Opt.Disabled || !physical.AggPushdownable(p) {
		return
	}
	st := p.Steps[0]
	est := o.estimate(st.Strat, st, 1)
	rows := math.Max(est.Results, 1)
	groups := math.Max(rows*cost.GroupShare, 1)
	attr := ""
	if !st.Pat.A.IsVar() {
		attr = st.Pat.A.Val.Str
	}
	frac := o.regionFraction(attr)
	if st.Strat == physical.StratBroadcast {
		frac = 1
	}
	push := o.Stats.AggRange(frac, rows, groups)
	central := est
	if physical.AggRankStreamable(p) {
		// Rank-fed group-by: the centralized stream stops after the
		// rows of the first Limit groups. The gate mirrors the
		// executor's (the scan must emit the ordering variable in key
		// order), so the discount never credits a plan that would run
		// blocking.
		kRows := int(math.Ceil(rows * float64(p.Tail.Limit) / groups))
		central = central.ScaledToLimit(kRows)
	}
	p.Tail.AggPushdown = push.Messages <= central.Messages
}

// streamableLimit returns the limit the streaming executor can
// terminate on early, or 0 when the tail blocks (skyline, multi-key
// orderings) and every operator must run to completion. An aggregating
// tail's limit counts GROUPS, not rows, so per-step row costs must not
// scale by it — chooseAggStrategy prices the rank-fed group-by case
// itself.
func streamableLimit(t physical.Tail) int {
	if t.Limit <= 0 || len(t.Skyline) > 0 || len(t.OrderBy) > 1 || t.HasAgg() {
		return 0
	}
	return t.Limit
}

// Rechoose implements physical.Reoptimizer: a peer hosting a migrated
// plan re-optimizes the remaining steps with its local view. The
// partition estimate derives from the peer's own trie depth — a purely
// local approximation of network size.
func (o *Optimizer) Rechoose(steps []physical.Step, tail physical.Tail, bindingCount int, peer *pgrid.Peer) []physical.Step {
	if o.Opt.Disabled || len(steps) <= 1 {
		return steps
	}
	local := *o.Stats
	if d := peer.Path().Len(); d > 0 {
		local.Partitions = 1 << uint(min(d, 20))
	}
	lo := &Optimizer{Stats: &local, Opt: o.Opt}
	// The first step is pinned: we are already at (or heading to) its
	// region.
	rest := lo.order(steps[1:], float64(bindingCount), streamableLimit(tail))
	out := make([]physical.Step, 0, len(steps))
	out = append(out, steps[0])
	out = append(out, rest...)
	return out
}

// order greedily sequences steps by estimated cost, recomputing join
// variables, filter attachment and ship flags for the new order.
// prevCard seeds the cardinality estimate (bindings already present);
// limit > 0 reprices the final step for early termination.
func (o *Optimizer) order(steps []physical.Step, prevCard float64, limit int) []physical.Step {
	if len(steps) == 0 {
		return steps
	}
	if o.Opt.Disabled {
		// Strategies only (shape defaults + forced override), original
		// order, no shipping.
		out := make([]physical.Step, len(steps))
		copy(out, steps)
		for i := range out {
			out[i].Strat = o.chooseStrategy(out[i], 1, 0)
			out[i].Ship = false
		}
		return out
	}
	// Pool all predicates; they re-attach as variables become bound.
	type pooled struct {
		pat     vql.Pattern
		filters []vql.Expr
		sims    []physical.SimSpec
	}
	pool := make([]pooled, len(steps))
	var allFilters []vql.Expr
	var allSims []physical.SimSpec
	for i, st := range steps {
		pool[i] = pooled{pat: st.Pat}
		allFilters = append(allFilters, st.Filters...)
		allSims = append(allSims, st.Sims...)
	}
	bound := map[string]bool{}
	if prevCard > 0 {
		// Variables bound by earlier (already-executed) steps are
		// unknown here; treat shared variables optimistically by
		// seeding nothing — join vars with prior bindings are
		// recomputed at runtime anyway.
		_ = prevCard
	}
	usedFilters := make([]bool, len(allFilters))
	usedSims := make([]bool, len(allSims))
	remaining := make([]int, len(pool))
	for i := range remaining {
		remaining[i] = i
	}
	var out []physical.Step
	card := math.Max(prevCard, 1)
	for len(remaining) > 0 {
		// Only the final operator of a streamable-limit plan gets the
		// early-termination discount: upstream steps feed joins and run
		// to completion regardless.
		stepLimit := 0
		if len(remaining) == 1 {
			stepLimit = limit
		}
		bestIdx, bestCost := -1, math.Inf(1)
		var bestEst cost.Estimate
		for _, ri := range remaining {
			pat := pool[ri].pat
			st := physical.Step{Pat: pat, JoinOn: joinVars(pat, bound), Sims: simsFor(pat, allSims, usedSims)}
			strat := o.chooseStrategy(st, card, stepLimit)
			est := o.estimate(strat, st, card).ScaledToLimit(stepLimit)
			// Prefer connected, cheap, selective steps.
			c := joinCost(est)
			if len(st.JoinOn) == 0 && len(bound) > 0 {
				c *= 100 // cartesian products last
			}
			if c < bestCost {
				bestCost, bestIdx, bestEst = c, ri, est
			}
		}
		// Build the chosen step.
		pat := pool[bestIdx].pat
		st := physical.Step{Pat: pat, JoinOn: joinVars(pat, bound)}
		st.Sims = takeSims(pat, allSims, usedSims, bound)
		st.Strat = o.chooseStrategy(st, card, stepLimit)
		for _, v := range pat.Vars() {
			bound[v] = true
		}
		// Attach every filter whose variables are now bound.
		for fi, f := range allFilters {
			if usedFilters[fi] {
				continue
			}
			if filterCovered(f, bound) {
				usedFilters[fi] = true
				st.Filters = append(st.Filters, f)
			}
		}
		// Push startswith(?v,'p') into the range scan: with the
		// order-preserving hash, the matching values form one
		// contiguous key interval (the paper's native prefix search).
		if st.Strat == physical.StratAVRange {
			st.ValuePrefix = prefixFor(st)
		}
		// Ship decision. ModeAuto ships only to a region: the keys of
		// a probe step scatter, so shipping it would only make it a
		// barrier.
		switch o.Opt.Mode {
		case ModeShip:
			st.Ship = len(out) > 0
		case ModeAuto:
			st.Ship = len(out) > 0 && card <= float64(o.Opt.ShipThreshold) && st.Shippable()
		}
		out = append(out, st)
		card = math.Max(bestEst.Results, 1)
		// Drop from remaining.
		for i, ri := range remaining {
			if ri == bestIdx {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	// Any unattached similarity predicates become post-filters of the
	// last step (their variables must be bound by now or Build would
	// have failed).
	last := &out[len(out)-1]
	for si, s := range allSims {
		if !usedSims[si] {
			last.Sims = append(last.Sims, s)
			usedSims[si] = true
		}
	}
	for fi, f := range allFilters {
		if !usedFilters[fi] {
			last.Filters = append(last.Filters, f)
			usedFilters[fi] = true
		}
	}
	return out
}

// joinVars lists the pattern's variables already in the bound set:
// the step's join variables.
func joinVars(pat vql.Pattern, bound map[string]bool) []string {
	var on []string
	for _, v := range pat.Vars() {
		if bound[v] {
			on = append(on, v)
		}
	}
	return on
}

// joinCost is the scalar the join ordering and the access-path choice
// minimize: messages, plus a tenth of a message per produced binding.
func joinCost(e cost.Estimate) float64 {
	return e.Messages + e.Results*0.1
}

// simsFor previews the sims applicable to a pattern (for costing).
func simsFor(pat vql.Pattern, sims []physical.SimSpec, used []bool) []physical.SimSpec {
	var out []physical.SimSpec
	if !pat.V.IsVar() {
		return nil
	}
	for i, s := range sims {
		if !used[i] && s.Var == pat.V.Var {
			out = append(out, s)
		}
	}
	return out
}

// takeSims consumes sims that can attach to this step: predicates on
// the pattern's value variable (usable by the q-gram path) or whose
// variables are all bound after this step.
func takeSims(pat vql.Pattern, sims []physical.SimSpec, used []bool, bound map[string]bool) []physical.SimSpec {
	var out []physical.SimSpec
	willBind := map[string]bool{}
	for v := range bound {
		willBind[v] = true
	}
	for _, v := range pat.Vars() {
		willBind[v] = true
	}
	for i, s := range sims {
		if used[i] {
			continue
		}
		if willBind[s.Var] {
			used[i] = true
			out = append(out, s)
		}
	}
	return out
}

// prefixFor extracts the longest literal prefix constraint
// startswith(?v, 'p') among the step's filters, for the step's own
// value variable. The filter itself stays attached (re-checking is
// free and keeps the pushdown purely an access-path optimization).
func prefixFor(st physical.Step) string {
	if !st.Pat.V.IsVar() {
		return ""
	}
	best := ""
	for _, f := range st.Filters {
		bf, ok := f.(vql.BoolFunc)
		if !ok || bf.Name != "startswith" || len(bf.Args) != 2 {
			continue
		}
		v, ok := bf.Args[0].(vql.VarOperand)
		if !ok || v.Name != st.Pat.V.Var {
			continue
		}
		lit, ok := bf.Args[1].(vql.LitOperand)
		if !ok || lit.Val.Kind != triple.KindString {
			continue
		}
		if len(lit.Val.Str) > len(best) {
			best = lit.Val.Str
		}
	}
	return best
}

// filterCovered reports whether all filter variables are bound.
func filterCovered(f vql.Expr, bound map[string]bool) bool {
	covered := true
	walkVars(f, func(v string) {
		if !bound[v] {
			covered = false
		}
	})
	return covered
}

func walkVars(e vql.Expr, fn func(string)) {
	switch x := e.(type) {
	case vql.Cmp:
		walkOperand(x.L, fn)
		walkOperand(x.R, fn)
	case vql.And:
		walkVars(x.L, fn)
		walkVars(x.R, fn)
	case vql.Or:
		walkVars(x.L, fn)
		walkVars(x.R, fn)
	case vql.Not:
		walkVars(x.E, fn)
	case vql.BoolFunc:
		for _, a := range x.Args {
			walkOperand(a, fn)
		}
	}
}

func walkOperand(o vql.Operand, fn func(string)) {
	switch x := o.(type) {
	case vql.VarOperand:
		fn(x.Name)
	case vql.FuncOperand:
		for _, a := range x.Args {
			walkOperand(a, fn)
		}
	}
}

// chooseStrategy selects the physical access path for a step whose
// JoinOn is set and whose upstream yields card bindings. With a
// streamable limit in effect for this step, candidate costs are scaled
// to what the early-terminating executor will actually pay — which
// penalizes the q-gram path (its gram phase is pure startup) relative
// to the page-by-page range scan.
//
// A step joined on its subject alone (its value unbound) runs either
// as batched OID probes, one per upstream subject, or as a scan of the
// attribute's region; the cheaper one wins. Warm routing caches batch
// the probes per responsible peer, so a few bindings favour probes,
// while cold caches or many bindings favour the region. ModeShip keeps
// the region, the only one of the two a mutant plan can migrate to,
// and the disabled optimizer keeps shape defaults.
func (o *Optimizer) chooseStrategy(st physical.Step, card float64, limit int) physical.AccessStrategy {
	if o.Opt.ForceStrategy != physical.StratAuto {
		if applicable(o.Opt.ForceStrategy, st) {
			return o.Opt.ForceStrategy
		}
	}
	shape := physical.DefaultStrategy(st)
	if shape == physical.StratAVRange && o.Opt.UseQGram && len(simsFor(st.Pat, st.Sims, make([]bool, len(st.Sims)))) > 0 {
		// Compare the q-gram path against the attribute range scan.
		attr := st.Pat.A.Val.Str
		sim := st.Sims[0]
		attrCount := float64(o.Stats.AttrCount(attr))
		frac := o.regionFraction(attr)
		rangeCost := o.Stats.Range(frac, attrCount).ScaledToLimit(limit)
		qgramCost := o.Stats.QGramSearch(len(sim.Target), 3, sim.MaxDist, 8).ScaledToLimit(limit)
		if qgramCost.Messages < rangeCost.Messages {
			return physical.StratQGram
		}
	}
	if shape == physical.StratAVRange && !o.Opt.Disabled && o.Opt.Mode != ModeShip && subjectOnly(st) {
		probes := o.estimate(physical.StratOIDLookup, st, card).ScaledToLimit(limit)
		region := o.estimate(physical.StratAVRange, st, card).ScaledToLimit(limit)
		if joinCost(probes) < joinCost(region) {
			return physical.StratOIDLookup
		}
	}
	return shape
}

// subjectOnly reports whether the step is joined on its subject
// variable but not on its value variable.
func subjectOnly(st physical.Step) bool {
	pat := st.Pat
	return pat.S.IsVar() && slices.Contains(st.JoinOn, pat.S.Var) &&
		!(pat.V.IsVar() && slices.Contains(st.JoinOn, pat.V.Var))
}

// applicable reports whether a forced strategy can execute the step's
// pattern shape at all.
func applicable(s physical.AccessStrategy, st physical.Step) bool {
	pat := st.Pat
	switch s {
	case physical.StratOIDLookup:
		// A ground subject, or one bound upstream to probe with.
		return !pat.S.IsVar() || slices.Contains(st.JoinOn, pat.S.Var)
	case physical.StratAVLookup:
		return !pat.A.IsVar()
	case physical.StratAVRange:
		return !pat.A.IsVar()
	case physical.StratValLookup:
		return true
	case physical.StratBroadcast:
		return true
	case physical.StratQGram:
		return !pat.A.IsVar() && pat.V.IsVar() && len(st.Sims) > 0
	}
	return false
}

// regionFraction is the share of the stored index entries that lie in
// the attribute's A#v region: every triple is stored under three keys
// (OID, A#v and v), and the attribute's triples fill one of them.
func (o *Optimizer) regionFraction(attr string) float64 {
	entries := float64(len(triple.AllIndexKinds) * o.Stats.TotalTriples)
	return float64(o.Stats.AttrCount(attr)) / math.Max(entries, 1)
}

// estimate prices one step whose JoinOn is set, card upstream
// bindings in.
func (o *Optimizer) estimate(strat physical.AccessStrategy, st physical.Step, card float64) cost.Estimate {
	s := o.Stats
	attr := ""
	if !st.Pat.A.IsVar() {
		attr = st.Pat.A.Val.Str
	}
	attrCount := float64(s.AttrCount(attr))
	switch strat {
	case physical.StratOIDLookup:
		k := 1
		if st.Pat.S.IsVar() {
			k = int(card)
		}
		return s.MultiLookup(k, card)
	case physical.StratAVLookup:
		return s.Lookup(attrCount * cost.EqSelectivity)
	case physical.StratAVRange:
		if len(st.JoinOn) > 0 && !subjectOnly(st) {
			// Joins via bound values: parallel probes.
			return s.MultiLookup(int(card), card)
		}
		est := s.Range(o.regionFraction(attr), attrCount)
		if len(st.JoinOn) > 0 {
			// Joined on the subject alone: the executor scans the whole
			// region, and the join keeps about one row per binding.
			est.Results = card
		}
		return est
	case physical.StratValLookup:
		return s.Lookup(attrCount * cost.EqSelectivity)
	case physical.StratBroadcast:
		return s.Broadcast(float64(s.TotalTriples))
	case physical.StratQGram:
		target := ""
		if len(st.Sims) > 0 {
			target = st.Sims[0].Target
		}
		return s.QGramSearch(len(target), 3, 2, 8)
	}
	return s.Broadcast(float64(s.TotalTriples))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
