// Package physical implements UniStore's distributed query execution
// engine: physical operators over the P-Grid overlay (key lookups,
// shower range scans, broadcasts, DHT index joins and the q-gram
// similarity access path), composed into mutant query plans (Papadimos
// & Maier) that can either pull data to the query peer ("fetch") or
// migrate themselves — remaining steps plus intermediate bindings — to
// the peer hosting the next region ("ship"), re-optimizing at every
// host.
//
// Execution is a streaming operator pipeline, not
// materialize-then-advance: each plan step runs as a stage whose
// overlay responses flow into an incremental symmetric hash join the
// moment they arrive, stages overlap (a later stage's independent scan
// opens while earlier stages still stream), every operation issues as
// soon as it is derivable, and the tail sink terminates the pipeline
// early when a LIMIT or ranked top-k bound proves no further response
// can change the result — canceling pending overlay operations, whose
// paged scans then pull no further page. Blocking tails
// (skyline, multi-key orderings) still materialize before the tail
// applies; everything else streams, and Engine.Open exposes the
// pipeline as a pull cursor (Open/Next/Close).
package physical

import (
	"fmt"
	"strings"

	"unistore/internal/agg"
	"unistore/internal/algebra"
	"unistore/internal/vql"
)

// AccessStrategy selects the physical operator resolving one pattern.
// Several implementations exist per logical operator (§2: "for each
// logical operator there are several physical implementations"); the
// cost model picks among them.
type AccessStrategy int

// Strategies.
const (
	// StratAuto defers the choice to the runtime/optimizer.
	StratAuto AccessStrategy = iota
	// StratOIDLookup resolves a pattern by its subject's OID key: one
	// lookup for a ground subject, or, for a subject bound upstream,
	// one probe per distinct subject, batched per responsible peer.
	// With a constant attribute, a probe set past the engine's probe
	// cap escalates to that attribute's region scan.
	StratOIDLookup
	// StratAVLookup resolves attr+value with one exact A#v-key lookup
	// (or one per bound value — the DHT index join).
	StratAVLookup
	// StratAVRange showers over the attribute's key region.
	StratAVRange
	// StratValLookup uses the v index: exact value, any attribute.
	StratValLookup
	// StratBroadcast floods all partitions and filters locally — the
	// fallback for unrestricted patterns, and the naive baseline the
	// experiments compare against.
	StratBroadcast
	// StratQGram answers a similarity predicate on the pattern's value
	// via the distributed q-gram index: gram-posting range queries,
	// count filtering, exact verification, then per-candidate lookups.
	StratQGram
)

func (s AccessStrategy) String() string {
	switch s {
	case StratAuto:
		return "auto"
	case StratOIDLookup:
		return "oid-lookup"
	case StratAVLookup:
		return "av-lookup"
	case StratAVRange:
		return "av-range"
	case StratValLookup:
		return "v-lookup"
	case StratBroadcast:
		return "broadcast"
	case StratQGram:
		return "qgram"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// SimSpec is a similarity predicate attached to a step.
type SimSpec struct {
	Var     string
	Target  string
	MaxDist int
}

// Step resolves one triple pattern and joins it into the running
// binding set.
type Step struct {
	Pat   vql.Pattern
	Strat AccessStrategy
	// JoinOn lists variables shared with the bindings accumulated by
	// earlier steps (empty for the first step or a cartesian join).
	JoinOn []string
	// Filters apply to the joined bindings right after this step.
	Filters []vql.Expr
	// Sims are similarity predicates applicable after this step;
	// a StratQGram step consumes the one matching its value variable.
	Sims []SimSpec
	// ValuePrefix narrows an A#v range scan to values with this string
	// prefix — the pushed-down form of startswith(?v,'p'), exploiting
	// the order-preserving hash's native prefix search.
	ValuePrefix string
	// Ship requests migrating the plan to this step's region before
	// executing it (mutant behaviour). Set by the optimizer or forced
	// by experiments.
	Ship bool
}

// Shippable reports whether the step's data lives in one region a
// mutant plan can migrate to. Probe steps have no such region: their
// keys scatter over the key space.
func (st Step) Shippable() bool {
	_, ok := shipTarget(st)
	return ok
}

func (st Step) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%s", st.Strat, st.Pat)
	if len(st.JoinOn) > 0 {
		fmt.Fprintf(&sb, " join[%s]", strings.Join(st.JoinOn, ","))
	}
	for _, f := range st.Filters {
		fmt.Fprintf(&sb, " filter[%s]", f)
	}
	for _, s := range st.Sims {
		fmt.Fprintf(&sb, " sim[edist(?%s,'%s')<=%d]", s.Var, s.Target, s.MaxDist)
	}
	if st.Ship {
		sb.WriteString(" ship")
	}
	return sb.String()
}

// Tail is the post-join pipeline: skyline, ordering, limit,
// projection. The streaming executor consumes it incrementally where
// it can — unordered limits stop the pipeline at the k-th row, and a
// single-key ordering over the final scan's value variable streams in
// ranking order with a threshold stop — while Apply remains the
// blocking (and normalizing) formulation.
type Tail struct {
	Skyline []vql.SkylineKey
	// GroupBy/Aggs/Having describe the aggregation (GROUP BY, the
	// aggregate select items, and the group filter). AggPushdown is the
	// optimizer's strategy choice: peer-side partial aggregation when
	// the plan shape allows it, centralized fallback otherwise (the
	// executor re-validates feasibility at run time).
	GroupBy     []string
	Aggs        []agg.Item
	Having      vql.Expr
	AggPushdown bool
	OrderBy     []vql.OrderKey
	TopN        bool
	Limit       int
	Project     []string
}

// HasAgg reports whether the tail aggregates (GROUP BY, aggregate
// items, or DISTINCT compiled as grouping).
func (t Tail) HasAgg() bool { return len(t.GroupBy) > 0 || len(t.Aggs) > 0 }

// Apply runs the tail pipeline over a binding set: aggregation (when
// present), then ordering, limiting and projection. The streaming
// executor aggregates incrementally and calls post directly; Apply is
// the blocking, normalizing formulation over raw rows.
func (t Tail) Apply(bs []algebra.Binding) []algebra.Binding {
	if t.HasAgg() {
		bs = algebra.ExecuteAggregate(&algebra.Aggregate{
			GroupBy: t.GroupBy, Items: t.Aggs, Having: t.Having,
		}, bs)
	}
	return t.post(bs)
}

// post applies the non-aggregating tail clauses to (possibly already
// aggregated) rows.
func (t Tail) post(bs []algebra.Binding) []algebra.Binding {
	if len(t.Skyline) > 0 {
		idx := algebra.SkylineIndexes(bs, t.Skyline)
		out := make([]algebra.Binding, len(idx))
		for i, j := range idx {
			out[i] = bs[j]
		}
		bs = out
	}
	if len(t.OrderBy) > 0 {
		algebra.SortBindings(bs, t.OrderBy)
	}
	if t.Limit > 0 && len(bs) > t.Limit {
		bs = bs[:t.Limit]
	}
	if len(t.Project) > 0 {
		out := make([]algebra.Binding, len(bs))
		for i, b := range bs {
			nb := algebra.Binding{}
			for _, v := range t.Project {
				if val, ok := b[v]; ok {
					nb[v] = val
				}
			}
			out[i] = nb
		}
		bs = out
	}
	return bs
}

// Plan is a compiled physical plan: the mutant unit that travels
// between peers.
type Plan struct {
	Steps []Step
	Tail  Tail
}

func (p *Plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	out := strings.Join(parts, " → ")
	if p.Tail.HasAgg() {
		mode := "centralized"
		if p.Tail.AggPushdown {
			mode = "pushdown"
		}
		items := make([]string, len(p.Tail.Aggs))
		for i, it := range p.Tail.Aggs {
			items[i] = it.String()
		}
		out += fmt.Sprintf(" ⇒ γ[%s; %s; %s]",
			strings.Join(p.Tail.GroupBy, ","), strings.Join(items, ","), mode)
	}
	return out
}

// WireSize estimates the serialized plan size.
func (p *Plan) WireSize() int {
	return len(p.String()) + 32
}

// Compile lowers a logical plan (from algebra.Build) into a physical
// plan with strategies chosen by pattern shape. The optimizer refines
// strategies and ship decisions afterwards.
func Compile(lp algebra.Plan) (*Plan, error) {
	p := &Plan{}
	inner := lp
	// Unwrap tail operators (outermost first).
	for {
		switch x := inner.(type) {
		case *algebra.Project:
			p.Tail.Project = x.Vars
			inner = x.Input
			continue
		case *algebra.Limit:
			p.Tail.Limit = x.N
			inner = x.Input
			continue
		case *algebra.TopN:
			p.Tail.Limit = x.N
			p.Tail.TopN = true
			p.Tail.OrderBy = x.Keys
			inner = x.Input
			continue
		case *algebra.OrderBy:
			p.Tail.OrderBy = x.Keys
			inner = x.Input
			continue
		case *algebra.Skyline:
			p.Tail.Skyline = x.Keys
			inner = x.Input
			continue
		case *algebra.Aggregate:
			p.Tail.GroupBy = x.GroupBy
			p.Tail.Aggs = x.Items
			p.Tail.Having = x.Having
			inner = x.Input
			continue
		}
		break
	}
	if err := compileJoins(inner, p); err != nil {
		return nil, err
	}
	for i := range p.Steps {
		if p.Steps[i].Strat == StratAuto {
			p.Steps[i].Strat = DefaultStrategy(p.Steps[i])
		}
	}
	return p, nil
}

// compileJoins flattens the left-deep join tree into steps, attaching
// filters and similarity selections to the step after which their
// variables are bound.
func compileJoins(lp algebra.Plan, p *Plan) error {
	switch x := lp.(type) {
	case *algebra.PatternScan:
		p.Steps = append(p.Steps, Step{Pat: x.Pat})
		return nil
	case *algebra.Join:
		if err := compileJoins(x.L, p); err != nil {
			return err
		}
		scan, ok := x.R.(*algebra.PatternScan)
		if !ok {
			return fmt.Errorf("physical: join right side is %T, want left-deep tree", x.R)
		}
		p.Steps = append(p.Steps, Step{Pat: scan.Pat, JoinOn: x.On})
		return nil
	case *algebra.Select:
		if err := compileJoins(x.Input, p); err != nil {
			return err
		}
		last := &p.Steps[len(p.Steps)-1]
		last.Filters = append(last.Filters, x.Cond)
		return nil
	case *algebra.SimilaritySelect:
		if err := compileJoins(x.Input, p); err != nil {
			return err
		}
		last := &p.Steps[len(p.Steps)-1]
		last.Sims = append(last.Sims, SimSpec{Var: x.Var, Target: x.Target, MaxDist: x.MaxDist})
		return nil
	}
	return fmt.Errorf("physical: unsupported logical node %T below the tail", lp)
}

// DefaultStrategy picks the access path a pattern's shape dictates,
// without statistics: the canonical mapping of Fig. 2's three indexes.
func DefaultStrategy(st Step) AccessStrategy {
	pat := st.Pat
	switch {
	case !pat.S.IsVar():
		return StratOIDLookup
	case !pat.A.IsVar() && !pat.V.IsVar():
		return StratAVLookup
	case !pat.A.IsVar():
		// A similarity predicate on this pattern's value variable can
		// use the q-gram index; the optimizer decides. Shape-wise the
		// attribute region range scan is the default.
		return StratAVRange
	case !pat.V.IsVar():
		return StratValLookup
	default:
		return StratBroadcast
	}
}

// CompileQuery is the one-call path from VQL text to a physical plan.
func CompileQuery(q *vql.Query) (*Plan, error) {
	lp, err := algebra.Build(q)
	if err != nil {
		return nil, err
	}
	return Compile(lp)
}
