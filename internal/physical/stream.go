package physical

// This file implements the streaming side of the executor: the query's
// set of outstanding overlay operations, the per-step pipeline stages
// (incremental symmetric joins fed by overlay operations), the tail
// sink with its LIMIT/top-k early-termination rules, and the pull
// cursor handed to callers. Exec (exec.go) owns the lifecycle; everything here runs
// under Exec.pmu, the single pipeline lock.

import (
	"slices"
	"sync"

	"unistore/internal/agg"
	"unistore/internal/algebra"
	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/ranking"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// --- Outstanding operations ---------------------------------------------------

// overlayOp is one overlay operation the query issued.
type overlayOp struct {
	complete func(pgrid.OpResult)
}

// opSet tracks every overlay operation of one query — probes, scans,
// gram fan-outs, across all pipeline stages. An operation issues the
// moment a stage can derive it (a scan is one shower over every
// partition it covers); closing the set cancels the outstanding ones,
// which is how an early-out stops traffic not sent yet: a canceled
// paged scan pulls no further page. All methods require Exec.pmu.
type opSet struct {
	ex      *Exec
	handles map[*overlayOp]*pgrid.Handle
	closed  bool
}

func newOpSet(ex *Exec) *opSet {
	return &opSet{ex: ex, handles: make(map[*overlayOp]*pgrid.Handle)}
}

// submit issues one operation. The completion callback arrives on a
// network goroutine (or the event loop) and re-enters through
// Exec.opDone, which serializes on pmu — so the handle is recorded
// before the callback body can observe the map.
func (o *opSet) submit(issue func(cb func(pgrid.OpResult)) *pgrid.Handle, complete func(pgrid.OpResult)) {
	if o.closed {
		return
	}
	op := &overlayOp{complete: complete}
	o.ex.noteOp()
	h := issue(func(res pgrid.OpResult) { o.ex.opDone(op, res) })
	o.handles[op] = h
	if h != nil && o.ex.tc.Active() {
		o.ex.recordTraceQID(h.QID())
	}
}

// close cancels the outstanding operations.
func (o *opSet) close() {
	if o.closed {
		return
	}
	o.closed = true
	for op, h := range o.handles {
		h.Cancel()
		delete(o.handles, op)
	}
}

// opDone is the single re-entry point from the overlay into the
// pipeline: it serializes on pmu and runs the operation's stage logic.
func (ex *Exec) opDone(op *overlayOp, res pgrid.OpResult) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.ops.closed {
		return
	}
	delete(ex.ops.handles, op)
	ex.noteHops(res.Hops)
	op.complete(res)
}

// --- Pipeline stages ----------------------------------------------------------

// stageMode is the right-side resolution a stage settled on.
type stageMode int

const (
	// modeUndecided defers the probe-vs-fallback choice until the first
	// upstream row reveals whether the probe variable is bound.
	modeUndecided stageMode = iota
	// modeProbes issues one exact lookup per distinct upstream value —
	// the streaming DHT index join.
	modeProbes
	// modeScan showers a key range.
	modeScan
	// modeFixed issues lookups for statically known keys.
	modeFixed
	// modeQGram runs the two-phase q-gram similarity access path.
	modeQGram
	// modeEmpty produces no right-side rows at all.
	modeEmpty
)

// stage executes one plan step as a streaming operator: upstream rows
// arrive through addLeft, overlay results through onEntries, and every
// matching pair leaves through emit as soon as it exists. A stage with
// probe-derivable join variables streams lookups per distinct upstream
// value; otherwise its scan opens in parallel with the upstream and an
// incremental symmetric hash join pairs the two sides in either
// arrival order. All methods require Exec.pmu.
type stage struct {
	ex  *Exec
	idx int
	st  Step
	// predStep carries the predicates emit applies to joined rows; the
	// q-gram path swaps in a copy with its verified predicate removed.
	predStep Step

	hasUp  bool
	join   *algebra.JoinState
	upDone bool
	opened bool

	mode     stageMode
	fallback stageMode // what modeUndecided becomes without a bound probe var
	// Probe configuration (modeProbes / modeUndecided).
	probeVar  string
	probeKind triple.IndexKind
	probeKey  func(v triple.Value) keys.Key
	probed    map[string]bool
	// probePend buffers probe keys derived from one upstream batch;
	// flushProbes coalesces them into a single Lookup operation, which
	// the peer groups per cached responsible partition — a k-value
	// index join costs ~peers-touched messages instead of k.
	probePend []keys.Key
	capped    bool // probe set exceeded probeCap; escalated to the region scan
	// Scan configuration (modeScan and escalation).
	scanKind  triple.IndexKind
	scanRange keys.Range
	issuedAll bool
	// Fixed keys (modeFixed).
	fixedKeys []keys.Key
	fixedKind triple.IndexKind
	// Q-gram state (qgram.go).
	sim         SimSpec
	gramList    []string
	gramResults [][]store.Entry
	gramsLeft   int
	verified    bool

	// rank marks the final stage of a streaming top-k: its scan serves
	// every partition in ranking order (top-down when rankDesc), so
	// while one partition answers, rows leave the stage in ranking
	// order and the sink can stop the scan early.
	rank     bool
	rankDesc bool

	// aggPush runs the stage's access path in aggregated form: overlay
	// operations carry the query's aggregation spec and deliver partial
	// group states to the coordinator table instead of rows.
	aggPush bool

	opsOut  int
	seen    map[string]bool // fact-level dedup of replica copies
	eosDown bool

	// Tracing (zero spanID = untraced): the stage's synthetic span id,
	// its operator row counts, and the first-row / EOS instants.
	spanID   uint64
	rowsIn   int
	rowsOut  int
	firstOut int64
	eosAt    int64
}

func newStage(ex *Exec, idx int, st Step) *stage {
	s := &stage{
		ex: ex, idx: idx, st: st, predStep: st,
		hasUp:  idx > 0 || ex.seeded,
		probed: make(map[string]bool),
		seen:   make(map[string]bool),
	}
	if ex.tc.Active() {
		s.spanID = ex.eng.peer.NewTraceID()
	}
	if s.hasUp {
		s.join = algebra.NewJoinState(st.JoinOn)
	}
	return s
}

// classify decides how the stage resolves its pattern, mirroring the
// materializing executor's runtime strategy grounding: variables bound
// by earlier steps turn range strategies into streaming lookups.
func (s *stage) classify() {
	pat := s.st.Pat
	switch s.st.Strat {
	case StratOIDLookup:
		s.classifyLookup(pat.S, triple.ByOID, func(v triple.Value) keys.Key {
			return triple.OIDKey(v.Str)
		}, func() keys.Key { return triple.OIDKey(pat.S.Val.Str) })
		if s.mode == modeUndecided && !pat.A.IsVar() {
			// Subjects bound upstream with a constant attribute: the
			// attribute's region holds every answer, so it backs the
			// probes past probeCap (and an unbound subject).
			s.fallback = modeScan
			s.setRegion(pat.A.Val.Str)
		}
	case StratAVLookup:
		attr := pat.A.Val.Str
		s.classifyLookup(pat.V, triple.ByAV, func(v triple.Value) keys.Key {
			return triple.AVKey(attr, v)
		}, func() keys.Key { return triple.AVKey(attr, pat.V.Val) })
	case StratValLookup:
		s.classifyLookup(pat.V, triple.ByVal, func(v triple.Value) keys.Key {
			return triple.ValKey(v)
		}, func() keys.Key { return triple.ValKey(pat.V.Val) })
	case StratAVRange:
		attr := pat.A.Val.Str
		s.setRegion(attr)
		if pat.V.IsVar() && s.hasUp && !s.rank {
			// A value variable bound upstream turns the scan into
			// streaming per-value probes (escalating back to the scan
			// past probeCap).
			s.mode = modeUndecided
			s.fallback = modeScan
			s.probeVar = pat.V.Var
			s.probeKind = triple.ByAV
			s.probeKey = func(v triple.Value) keys.Key { return triple.AVKey(attr, v) }
			return
		}
		s.mode = modeScan
	case StratBroadcast:
		s.mode = modeScan
		s.scanKind = triple.ByOID
		s.scanRange = keys.Range{}
	case StratQGram:
		s.classifyQGram()
	default:
		// Unknown strategy: degrade to broadcast, never wrong.
		s.mode = modeScan
		s.scanKind = triple.ByOID
		s.scanRange = keys.Range{}
	}
}

// setRegion points the stage's scan at the attribute's A#v region.
func (s *stage) setRegion(attr string) {
	s.scanKind = triple.ByAV
	if s.st.ValuePrefix != "" {
		// Pushed-down startswith: the order-preserving hash makes the
		// matching values a contiguous key interval.
		s.scanRange = triple.AVStringPrefixRange(attr, s.st.ValuePrefix)
	} else {
		s.scanRange = triple.AVPrefixRange(attr)
	}
}

// classifyLookup configures a lookup-style stage: ground term → fixed
// key; variable bound upstream → streaming probes; otherwise the right
// side is empty (no probe can be derived).
func (s *stage) classifyLookup(term vql.Term, kind triple.IndexKind, key func(triple.Value) keys.Key, fixed func() keys.Key) {
	if !term.IsVar() {
		s.mode = modeFixed
		s.fixedKind = kind
		s.fixedKeys = []keys.Key{fixed()}
		return
	}
	if s.hasUp {
		s.mode = modeUndecided
		s.fallback = modeEmpty
		s.probeVar = term.Var
		s.probeKind = kind
		s.probeKey = key
		return
	}
	s.mode = modeEmpty
}

// barrier reports whether the stage must wait for its complete
// upstream before doing any right-side work: mutant (ship) steps may
// migrate the plan away, and an ordered top-k scan must not interleave
// late upstream rows with its ordered pages.
func (s *stage) barrier() bool {
	return (s.st.Ship && s.idx > 0) || s.rank
}

// open activates the right side. For deferred (barrier) stages this
// happens at upstream EOS; everything else opens when the pipeline
// starts, so independent scans overlap with upstream work.
func (s *stage) open() {
	if s.opened {
		return
	}
	s.opened = true
	if s.hasUp && s.upDone && s.join.LeftCount() == 0 {
		// Nothing to join against: skip the access path entirely.
		s.mode = modeEmpty
		return
	}
	switch s.mode {
	case modeUndecided:
		for _, b := range s.join.LeftRows() {
			s.noteLeft(b)
		}
		s.flushProbes()
	case modeScan:
		s.openScan()
	case modeFixed:
		s.issuedAll = true
		s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
			return s.ex.eng.peer.Lookup(s.fixedKind, s.fixedKeys, cb, s.opts()...)
		}, func(res pgrid.OpResult) { s.onEntries(res.Entries) })
	case modeQGram:
		s.openQGram()
	}
}

// opAggStates is the pushdown re-entry point from the overlay: one
// batch of partial group states enters the merge table under pmu.
func (ex *Exec) opAggStates(states []agg.State) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.stopped || ex.migrated || ex.ops.closed || ex.agg == nil {
		return
	}
	ex.agg.merge(states)
}

// addLeft feeds upstream rows into the stage. Probes derived from the
// whole batch flush as one coalesced operation before the joined rows
// move on.
func (s *stage) addLeft(rows []algebra.Binding) {
	if s.ex.stopped || s.ex.migrated {
		return
	}
	s.rowsIn += len(rows)
	var out []algebra.Binding
	for _, b := range rows {
		if s.opened {
			s.noteLeft(b)
		}
		out = append(out, s.join.AddLeft(b)...)
	}
	s.flushProbes()
	s.emit(out)
}

// noteLeft derives right-side work from one upstream row: the first
// row decides probe-vs-fallback, every row may contribute a new probe.
func (s *stage) noteLeft(b algebra.Binding) {
	if s.mode == modeUndecided {
		if _, ok := b[s.probeVar]; ok {
			s.mode = modeProbes
		} else {
			s.mode = s.fallback
			if s.mode == modeScan {
				s.openScan()
			}
			return
		}
	}
	if s.mode != modeProbes || s.capped {
		return
	}
	v, ok := b[s.probeVar]
	if !ok {
		return
	}
	lex := v.Lexical()
	if s.probed[lex] {
		return
	}
	s.probed[lex] = true
	if s.fallback == modeScan && len(s.probed) > s.ex.eng.probeCap {
		// Too many distinct values for per-value probes: one region
		// scan covers everything (fact dedup absorbs the overlap with
		// probes already in flight). Buffered probes are dropped — the
		// scan subsumes them before they were ever sent.
		s.capped = true
		s.probePend = nil
		s.openScan()
		return
	}
	s.probePend = append(s.probePend, s.probeKey(v))
}

// flushProbes turns the buffered probe keys into one overlay Lookup,
// which the peer splits per cached responsible partition, falling back
// to individually routed lookups for uncached keys.
func (s *stage) flushProbes() {
	if len(s.probePend) == 0 {
		return
	}
	ks := s.probePend
	s.probePend = nil
	s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
		return s.ex.eng.peer.Lookup(s.probeKind, ks, cb, s.opts()...)
	}, func(res pgrid.OpResult) { s.onEntries(res.Entries) })
}

// openScan showers the stage's key range as one overlay scan, which
// reaches every partition the range covers in parallel. Responses
// stream page by page into the join (the overlay's paged scans deliver
// partial pages as they arrive) — or, with the aggregation pushed
// down, as batches of group states into the coordinator's merge table.
// The rank stage scans in ranking order.
func (s *stage) openScan() {
	if s.issuedAll {
		return
	}
	s.issuedAll = true
	s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
		return s.ex.eng.peer.RangeQuery(s.scanKind, s.scanRange, cb, s.opts(pgrid.WithDesc(s.rankDesc),
			pgrid.WithPages(func(part keys.Key, es []store.Entry) { s.ex.opPage(s, part, es) }))...)
	}, func(pgrid.OpResult) {})
}

// opPage is the streaming re-entry point from the overlay: one page
// (or one partition's whole answer) enters the pipeline under pmu.
// part is the partition that served it. Each partition pages in
// ranking order, but pages of different partitions interleave, so the
// rank stage's order holds only while the serving partition covers the
// whole scanned range; the first page from a partition that does not
// drops the sink to sort-at-end before its rows enter.
func (ex *Exec) opPage(s *stage, part keys.Key, entries []store.Entry) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.stopped || ex.migrated || ex.ops.closed {
		return
	}
	if s.rank && !s.scanRange.WithinPrefix(part) {
		ex.sink.unorder()
	}
	s.onEntries(entries)
}

// onEntries turns fetched entries into bindings, joins them against
// the upstream side and emits the merged rows.
func (s *stage) onEntries(entries []store.Entry) {
	rows := s.toBindings(entries)
	if !s.hasUp {
		s.emit(rows)
		return
	}
	var out []algebra.Binding
	for _, b := range rows {
		out = append(out, s.join.AddRight(b)...)
	}
	s.emit(out)
}

// toBindings unifies entries with the pattern, deduplicating replica
// copies of the same fact across the stage's whole lifetime.
func (s *stage) toBindings(entries []store.Entry) []algebra.Binding {
	var out []algebra.Binding
	for _, e := range entries {
		fact := e.Triple.OID + "\x00" + e.Triple.Attr + "\x00" + e.Triple.Val.Lexical()
		if s.seen[fact] {
			continue
		}
		s.seen[fact] = true
		if b, ok := algebra.MatchPattern(s.st.Pat, e.Triple); ok {
			out = append(out, b)
		}
	}
	return out
}

// emit applies the step's predicates and pushes surviving rows to the
// next stage (or the tail sink).
func (s *stage) emit(rows []algebra.Binding) {
	if s.ex.stopped || s.ex.migrated {
		return
	}
	rows = applyStepPredicates(s.predStep, rows)
	if len(rows) == 0 {
		return
	}
	s.rowsOut += len(rows)
	if s.spanID != 0 && s.firstOut == 0 {
		s.firstOut = int64(s.ex.eng.peer.Net().Now())
	}
	if s.idx == len(s.ex.stages)-1 {
		if a := s.ex.agg; a != nil && !a.pushdown {
			// Centralized aggregation: rows fold into the group table
			// instead of materializing in the sink — the sink only sees
			// finalized groups.
			a.addRows(rows)
			return
		}
		s.ex.sink.push(rows)
		return
	}
	s.ex.stages[s.idx+1].addLeft(rows)
}

// upstreamEOS records that every upstream row has arrived; barrier
// stages resolve here (migrate the plan, or open locally).
func (s *stage) upstreamEOS() {
	if s.upDone || s.ex.stopped || s.ex.migrated {
		return
	}
	s.upDone = true
	if !s.opened && s.st.Ship && s.idx > 0 {
		if target, ok := shipTarget(s.st); ok && !s.ex.eng.peer.Responsible(target) {
			s.ex.migrateFrom(s.idx)
			return
		}
	}
	if !s.opened {
		s.ex.openFrom(s.idx)
	}
	s.flushProbes() // probes derived from the final upstream batch
	s.checkDone()
}

// rightDone reports whether the stage's own access path is exhausted.
func (s *stage) rightDone() bool {
	if !s.opened {
		return false
	}
	switch s.mode {
	case modeUndecided, modeEmpty:
		// Undecided at upstream EOS means no row ever arrived.
		return true
	case modeProbes:
		return s.upDone && s.opsOut == 0
	case modeScan, modeFixed:
		return s.issuedAll && s.opsOut == 0
	case modeQGram:
		return s.gramsLeft == 0 && s.verified && s.opsOut == 0
	}
	return false
}

// checkDone propagates EOS downstream once both sides are exhausted.
func (s *stage) checkDone() {
	if s.eosDown || s.ex.stopped || s.ex.migrated || !s.upDone || !s.rightDone() {
		return
	}
	s.eosDown = true
	if s.spanID != 0 {
		s.eosAt = int64(s.ex.eng.peer.Net().Now())
	}
	if s.idx == len(s.ex.stages)-1 {
		s.ex.sink.eos()
		return
	}
	s.ex.stages[s.idx+1].upstreamEOS()
}

// opts returns the options of an overlay read the stage issues: more,
// plus its trace context (the operation becomes a child of the stage's
// synthetic span) and, with the aggregation pushed down, the spec with
// the coordinator's merge table as the state sink.
func (s *stage) opts(more ...pgrid.OpOption) []pgrid.OpOption {
	if s.spanID != 0 {
		more = append(more, pgrid.WithTrace(trace.Ctx{
			TraceID: s.ex.tc.TraceID, Parent: s.spanID, Depth: s.ex.tc.Depth + 1,
		}))
	}
	if s.aggPush {
		more = append(more, pgrid.WithAgg(s.ex.agg.spec, s.ex.opAggStates))
	}
	return more
}

// submitOp issues one overlay operation for the stage, tracking the
// stage's outstanding count for EOS detection.
func (s *stage) submitOp(issue func(cb func(pgrid.OpResult)) *pgrid.Handle, complete func(pgrid.OpResult)) {
	s.opsOut++
	s.ex.ops.submit(issue, func(res pgrid.OpResult) {
		s.opsOut--
		complete(res)
		s.checkDone()
	})
}

// --- Tail sink ----------------------------------------------------------------

// sinkMode is the termination discipline the tail runs under.
type sinkMode int

const (
	// sinkAll materializes every row and applies the tail at EOS —
	// required by skyline, multi-key ordering, and orderings the final
	// stage cannot emit natively.
	sinkAll sinkMode = iota
	// sinkLimit streams rows in arrival order and — when a limit is
	// set — stops the pipeline as soon as that many rows exist.
	sinkLimit
	// sinkRank consumes an order-emitting final stage and stops once
	// the threshold test proves no better row can arrive. It drops to
	// sinkAll (unorder) once the final stage's rows stop arriving in
	// ranking order.
	sinkRank
)

// tailSink terminates the pipeline: it accumulates emitted rows,
// decides when no further network work can change the result, and
// finalizes through Tail.Apply (which is a no-op re-normalization for
// the streaming modes). All methods require Exec.pmu.
type tailSink struct {
	ex      *Exec
	mode    sinkMode
	limit   int
	rankVar string
	topk    *ranking.ThresholdTopK[algebra.Binding]
	rows    []algebra.Binding
}

func newTailSink(ex *Exec) *tailSink {
	t := ex.tail
	k := &tailSink{ex: ex, mode: sinkAll, limit: t.Limit}
	// With an aggregation the sink consumes finalized GROUP rows. The
	// rank discipline additionally needs those rows to arrive in
	// ranking order, which only the centralized path streaming over the
	// group key can provide: pushdown delivers unordered partial states
	// and must materialize before ordering.
	aggRankOK := true
	if t.HasAgg() {
		aggRankOK = ex.agg != nil && !ex.agg.pushdown &&
			len(t.OrderBy) == 1 && containsVar(t.GroupBy, t.OrderBy[0].Var)
	}
	switch {
	case len(t.Skyline) > 0 || (t.Limit <= 0 && len(t.OrderBy) > 0):
		// Blocking tail: every row is needed before the first can leave.
	case len(t.OrderBy) == 0:
		// Unordered: stream rows as they arrive; a limit stops early.
		k.mode = sinkLimit
	case len(t.OrderBy) == 1 && rankStreamable(ex.steps, t) && aggRankOK:
		k.mode = sinkRank
		key := t.OrderBy[0]
		k.rankVar = key.Var
		k.topk = ranking.NewThresholdTopK(t.Limit, func(a, b algebra.Binding) bool {
			c := a[key.Var].Compare(b[key.Var])
			if key.Desc {
				c = -c
			}
			return c < 0
		})
	}
	return k
}

// containsVar reports membership in a variable list.
func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// rankStreamable reports whether the final step's access path can emit
// rows in ranking order: a range scan over the ordering variable's
// attribute region, whose key order is value order under the
// order-preserving hash.
func rankStreamable(steps []Step, t Tail) bool {
	if len(steps) == 0 {
		return false
	}
	last := steps[len(steps)-1]
	return last.Strat == StratAVRange && !last.Pat.A.IsVar() &&
		last.Pat.V.IsVar() && last.Pat.V.Var == t.OrderBy[0].Var
}

// push receives rows from the final stage.
func (k *tailSink) push(rows []algebra.Binding) {
	switch k.mode {
	case sinkAll:
		k.rows = append(k.rows, rows...)
	case sinkLimit:
		for _, b := range rows {
			k.rows = append(k.rows, b)
			k.deliver()
			if k.limit > 0 && len(k.rows) >= k.limit {
				k.ex.earlyOut()
				return
			}
		}
	case sinkRank:
		for _, b := range rows {
			if k.topk.Offer(b) {
				k.rows = append(k.rows, b)
				k.deliver()
			}
			// The final stage emits in ranking order, so the row just
			// seen bounds everything still to come.
			if k.topk.Done(b) {
				k.ex.earlyOut()
				return
			}
		}
	}
}

// unorder drops the rank discipline once the final stage's rows stop
// arriving in ranking order: the sink keeps the rows it holds (a row
// the threshold turned away already had LIMIT better rows ahead of it),
// materializes the rest and orders them at EOS. A rank-fed aggregation
// stops finalizing groups early for the same reason. The rows move to a
// fresh slice, so the final sort cannot reorder the prefix the cursor
// already streamed.
func (k *tailSink) unorder() {
	if k.mode != sinkRank {
		return
	}
	k.mode = sinkAll
	k.rows = slices.Clone(k.rows)
	if a := k.ex.agg; a != nil {
		a.stream = false
	}
}

// deliver streams the row just appended to rows: it shows the cursor
// the rows so far, without copying them, and stamps
// time-to-first-result.
func (k *tailSink) deliver() {
	k.ex.noteFirstResult()
	if cur := k.ex.cursor; cur != nil {
		cur.push(k.rows)
	}
}

// eos finalizes the pipeline once every stage is exhausted. An
// aggregation flushes its remaining groups through the sink first, so
// LIMIT and rank termination apply to the finalized group rows (the
// flush itself may early-out, which already completed the query).
func (k *tailSink) eos() {
	if a := k.ex.agg; a != nil {
		a.flush(k)
		if k.ex.stopped || k.ex.Done() {
			return
		}
	}
	k.ex.finishPipeline(k.rows)
}

// projectRow mirrors Tail.Apply's projection for streamed rows.
func projectRow(b algebra.Binding, vars []string) algebra.Binding {
	if len(vars) == 0 {
		return b
	}
	nb := algebra.Binding{}
	for _, v := range vars {
		if val, ok := b[v]; ok {
			nb[v] = val
		}
	}
	return nb
}

// --- Pull cursor --------------------------------------------------------------

// Cursor is the pull side of a streaming query: rows become available
// as the pipeline emits them, before the query has finished. Next
// blocks (concurrent mode) or drives the simulation (deterministic
// mode) until a row or EOS; Close cancels the rest of the query. A
// Cursor is intended for a single consuming goroutine.
type Cursor struct {
	ex *Exec
	mu sync.Mutex
	// streamed is the sink's own row slice as of its latest delivery,
	// unprojected: the sink only appends to it, and finishPipeline
	// orders a copy, so its first len(streamed) rows never change.
	// final is the completed result, which extends the streamed prefix.
	// pos counts the rows Next has returned.
	streamed []algebra.Binding
	final    []algebra.Binding
	pos      int
	done     bool
	notify   chan struct{}
}

func newCursor(ex *Exec) *Cursor {
	return &Cursor{ex: ex, notify: make(chan struct{}, 1)}
}

// push publishes the sink's rows after it delivered one more.
func (c *Cursor) push(rows []algebra.Binding) {
	c.mu.Lock()
	c.streamed = rows
	c.mu.Unlock()
	c.wake()
}

// finish records the final result and marks EOS.
func (c *Cursor) finish(result []algebra.Binding) {
	c.mu.Lock()
	c.final = result
	c.done = true
	c.mu.Unlock()
	c.wake()
}

func (c *Cursor) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// ready reports whether Next can answer without waiting.
func (c *Cursor) ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done || c.pos < len(c.streamed)
}

// Next returns the next result row, blocking (or pumping the simulated
// network) until one is available; ok is false at end of stream.
func (c *Cursor) Next() (algebra.Binding, bool) {
	c.ex.await(c.ready, c.notify)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		if c.pos < len(c.final) {
			c.pos++
			return c.final[c.pos-1], true
		}
		return nil, false
	}
	c.pos++
	return projectRow(c.streamed[c.pos-1], c.ex.tail.Project), true
}

// Close terminates the query early (a no-op after completion) and
// releases its network state.
func (c *Cursor) Close() { c.ex.Cancel() }

// Exec returns the execution handle behind the cursor (metrics).
func (c *Cursor) Exec() *Exec { return c.ex }
