package physical

// This file implements the streaming aggregation operator: the
// coordinator half of in-network GROUP BY. Two strategies share one
// merge table (agg.Table, the same code the reference executor and the
// serving peers run):
//
//   - pushdown: the single scan step issues aggregated overlay
//     operations (pgrid.WithAgg); each partition answers
//     with per-group partial states, paged as bounded batches of
//     groups, and the coordinator merges them. Rows never cross the
//     network.
//   - centralized fallback: rows stream out of the ordinary pipeline
//     (joins, filters, q-gram verification) and fold into the table as
//     they arrive — aggregation state is bounded by groups, not rows,
//     even though rows crossed the network.
//
// Either way the groups finalize through the tail sink, so HAVING,
// ORDER BY over aggregate outputs, and LIMIT reuse the existing
// termination machinery. When the ordering key is a group variable the
// final scan emits in key order (the rank frontier), groups complete
// at key boundaries and stream into the threshold top-k — a
// `GROUP BY ?v ORDER BY ?v LIMIT k` stops pulling pages as soon as k
// groups are settled.

import (
	"unistore/internal/agg"
	"unistore/internal/algebra"
	"unistore/internal/vql"
)

// aggPushdownable reports whether the plan's aggregation can run
// peer-side: a single step (no upstream join whose rows the peers
// cannot see), no residual predicates the overlay cannot evaluate, an
// access path that resolves to scans or exact lookups, and every
// grouping/aggregate input variable bound by the step's own pattern.
func aggPushdownable(steps []Step, t Tail) bool {
	if !t.HasAgg() || len(steps) != 1 {
		return false
	}
	st := steps[0]
	if len(st.Filters) > 0 || len(st.Sims) > 0 {
		return false
	}
	switch st.Strat {
	case StratOIDLookup, StratAVLookup, StratValLookup, StratAVRange, StratBroadcast:
	default:
		return false
	}
	vars := map[string]bool{}
	for _, v := range st.Pat.Vars() {
		vars[v] = true
	}
	for _, g := range t.GroupBy {
		if !vars[g] {
			return false
		}
	}
	for _, it := range t.Aggs {
		if it.Var != "" && !vars[it.Var] {
			return false
		}
	}
	return true
}

// AggPushdownable is the optimizer's view of aggregation-pushdown
// feasibility for a compiled plan.
func AggPushdownable(p *Plan) bool { return aggPushdownable(p.Steps, p.Tail) }

// AggRankStreamable reports whether the centralized strategy could run
// this plan's aggregation in rank-fed streaming mode — ORDER BY a
// single group variable that the final scan emits in key order — the
// one shape where a LIMIT lets rows-shipped terminate early. It
// mirrors the executor's own gate (sinkRank + group-var ordering), so
// the optimizer's limit discount never credits a plan the executor
// would run blocking.
func AggRankStreamable(p *Plan) bool {
	t := p.Tail
	return t.HasAgg() && t.Limit > 0 && len(t.OrderBy) == 1 &&
		containsVar(t.GroupBy, t.OrderBy[0].Var) && rankStreamable(p.Steps, t)
}

// aggTerm lowers a pattern term to the overlay's pattern
// representation.
func aggTerm(t vql.Term) agg.Term {
	if t.IsVar() {
		return agg.VarTerm(t.Var)
	}
	return agg.LitTerm(t.Val)
}

// aggRun is the per-query aggregation state. All methods require
// Exec.pmu, like the stages feeding it.
type aggRun struct {
	ex       *Exec
	spec     *agg.Spec
	table    *agg.Table
	pushdown bool

	// stream marks the rank-fed mode: the centralized input arrives in
	// ranking order of rankVar (a group variable), so the groups of a
	// rank value are complete the moment the stream moves past it and
	// can feed the sink's threshold top-k before EOS.
	stream  bool
	rankVar string
	curSet  bool
	cur     string

	started bool // any input (rows or states) arrived
	flushed bool // EOS finalization ran
	drained bool // remaining groups were handed to finishPipeline
}

// newAggRun prepares the aggregation for one execution. The wire spec
// carries the step's pattern only on the pushdown path — the
// centralized table is fed bindings, not entries.
func newAggRun(ex *Exec, pushdown bool) *aggRun {
	spec := &agg.Spec{GroupBy: ex.tail.GroupBy, Items: ex.tail.Aggs}
	if pushdown {
		pat := ex.steps[0].Pat
		spec.Pat = [3]agg.Term{aggTerm(pat.S), aggTerm(pat.A), aggTerm(pat.V)}
	}
	return &aggRun{ex: ex, spec: spec, table: agg.NewTable(spec), pushdown: pushdown}
}

// configureStream arms the rank-fed mode once the sink settled on its
// termination discipline.
func (a *aggRun) configureStream(k *tailSink) {
	if a.pushdown || k.mode != sinkRank {
		return
	}
	a.stream = true
	a.rankVar = k.rankVar
}

// addRows folds centralized rows into the table. In stream mode a
// change of the ranking value completes every open group (they all
// carry the previous value), which finalizes and emits them in rank
// order — the sink's threshold stop can then cancel the rest of the
// scan mid-flight.
func (a *aggRun) addRows(rows []algebra.Binding) {
	for _, b := range rows {
		a.started = true
		if a.stream {
			lex := b[a.rankVar].Lexical()
			if a.curSet && lex != a.cur {
				a.emitCompleted()
				if a.ex.stopped || a.ex.migrated {
					return
				}
			}
			a.curSet, a.cur = true, lex
		}
		a.table.Add(b)
	}
}

// merge folds pushed-down partial states into the table.
func (a *aggRun) merge(states []agg.State) {
	if len(states) > 0 {
		a.started = true
	}
	a.table.MergeStates(states)
}

// emitCompleted finalizes every open group (stream mode: they share
// the now-passed rank value), empties the table and pushes the
// surviving rows — HAVING applied — to the sink in ranking order.
func (a *aggRun) emitCompleted() {
	rows := algebra.FinalizeAggregate(a.ex.tail.Having, a.table)
	a.table = agg.NewTable(a.spec)
	if len(rows) == 0 {
		return
	}
	algebra.SortBindings(rows, a.ex.tail.OrderBy)
	a.ex.sink.push(rows)
}

// flush finalizes the remaining groups at pipeline EOS and hands them
// to the sink (sorted when an ordering applies, so the rank sink's
// threshold semantics hold even for aggregate-output orderings that
// could not stream).
func (a *aggRun) flush(k *tailSink) {
	if a.flushed {
		return
	}
	a.flushed = true
	a.drained = true
	rows := algebra.FinalizeAggregate(a.ex.tail.Having, a.table)
	a.table = agg.NewTable(a.spec)
	if len(a.ex.tail.OrderBy) > 0 {
		algebra.SortBindings(rows, a.ex.tail.OrderBy)
	}
	k.push(rows)
}

// drainInto finalizes whatever groups remain (a cancel or early-out
// interrupted the pipeline before flush) and appends them to the rows
// the sink already delivered. Groups a stream-mode early-out left open
// rank strictly worse than every delivered row, so the tail's
// normalization keeps the delivered prefix exact.
func (a *aggRun) drainInto(rows []algebra.Binding) []algebra.Binding {
	if a.drained {
		return rows
	}
	a.drained = true
	if !a.started {
		return rows
	}
	return append(rows, algebra.FinalizeAggregate(a.ex.tail.Having, a.table)...)
}
