package physical

// This file implements the streaming side of the executor: the shared
// bounded operation window, the per-step pipeline stages (incremental
// symmetric joins fed by overlay operations), the tail sink with its
// LIMIT/top-k early-termination rules, and the pull cursor handed to
// callers. Exec (exec.go) owns the lifecycle; everything here runs
// under Exec.pmu, the single pipeline lock.

import (
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

// --- Bounded in-flight window -------------------------------------------------

// windowOp is one overlay operation scheduled through the window.
type windowOp struct {
	issue    func(cb func(pgrid.OpResult)) *pgrid.Handle
	complete func(pgrid.OpResult)
}

// opWindow drives every overlay operation of one query — probes, range
// shards, gram fan-outs, across all pipeline stages — through a single
// bounded in-flight window: at most `limit` operations outstanding at
// once (0 = unbounded), excess operations queued FIFO and issued as
// completions free slots. Closing the window drops the queue and
// cancels the outstanding operations, which is how an early-out stops
// traffic that has not been sent yet. All methods require Exec.pmu.
type opWindow struct {
	ex       *Exec
	limit    int
	inFlight int
	queue    []*windowOp
	handles  map[*windowOp]*pgrid.Handle
	closed   bool
}

func newOpWindow(ex *Exec, limit int) *opWindow {
	return &opWindow{ex: ex, limit: limit, handles: make(map[*windowOp]*pgrid.Handle)}
}

func (w *opWindow) submit(issue func(cb func(pgrid.OpResult)) *pgrid.Handle, complete func(pgrid.OpResult)) {
	if w.closed {
		return
	}
	op := &windowOp{issue: issue, complete: complete}
	if w.limit <= 0 || w.inFlight < w.limit {
		w.fire(op)
		return
	}
	w.queue = append(w.queue, op)
}

// fire issues one operation. The completion callback arrives on a
// network goroutine (or the event loop) and re-enters through
// Exec.opDone, which serializes on pmu — so the handle is recorded
// before the callback body can observe the map.
func (w *opWindow) fire(op *windowOp) {
	w.inFlight++
	w.ex.noteOp()
	h := op.issue(func(res pgrid.OpResult) { w.ex.opDone(op, res) })
	w.handles[op] = h
	if h != nil && w.ex.tc.Active() {
		w.ex.recordTraceQID(h.QID())
	}
}

// pump tops the window up after a completion.
func (w *opWindow) pump() {
	for !w.closed && len(w.queue) > 0 && (w.limit <= 0 || w.inFlight < w.limit) {
		op := w.queue[0]
		w.queue = w.queue[1:]
		w.fire(op)
	}
}

// close drops queued operations and cancels outstanding ones.
func (w *opWindow) close() {
	if w.closed {
		return
	}
	w.closed = true
	w.queue = nil
	for op, h := range w.handles {
		h.Cancel()
		delete(w.handles, op)
	}
}

// opDone is the single re-entry point from the overlay into the
// pipeline: it serializes on pmu, runs the operation's stage logic and
// tops the window up.
func (ex *Exec) opDone(op *windowOp, res pgrid.OpResult) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	w := ex.win
	delete(w.handles, op)
	w.inFlight--
	if w.closed {
		return
	}
	ex.noteHops(res.Hops)
	op.complete(res)
	w.pump()
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
	// modeScan showers a key range (sharded when configured).
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

	// Ordered shard release for the final stage of a streaming top-k:
	// shards are issued with a small lookahead and their results are
	// released strictly in key order, so rows leave the stage in
	// ranking order and the sink can stop the scan early.
	rank      bool
	rankDesc  bool
	rankAhead int
	shards    []keys.Range
	shardBuf  [][]store.Entry
	shardOK   []bool
	nextIssue int
	nextRel   int

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
// late upstream rows with released shards.
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
	if ex.stopped || ex.migrated || ex.win.closed || ex.agg == nil {
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

// openScan showers the stage's key range, split into the engine's
// shard count. Responses stream page by page into the join (the
// overlay's paged scans deliver partial pages as they arrive) — or, with
// the aggregation pushed down, as batches of group states into the
// coordinator's merge table. The rank stage instead issues shards with
// a bounded lookahead and releases results strictly in key order.
func (s *stage) openScan() {
	if s.issuedAll || len(s.shards) > 0 {
		return
	}
	shards := []keys.Range{s.scanRange}
	if n := s.ex.eng.shards(); n > 1 {
		shards = keys.SplitRange(s.scanRange, n)
	}
	if s.rank {
		if s.rankDesc {
			for i, j := 0, len(shards)-1; i < j; i, j = i+1, j-1 {
				shards[i], shards[j] = shards[j], shards[i]
			}
		}
		s.shards = shards
		s.shardBuf = make([][]store.Entry, len(shards))
		s.shardOK = make([]bool, len(shards))
		s.rankAhead = s.ex.eng.window()
		if s.rankAhead <= 0 {
			// An unbounded window would defeat the early-out; keep a
			// small ordered lookahead instead.
			s.rankAhead = 2
		}
		s.issueRank()
		return
	}
	s.issuedAll = true
	for _, r := range shards {
		r := r
		s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
			return s.ex.eng.peer.RangeQuery(s.scanKind, r, cb, s.opts(
				pgrid.WithPages(func(es []store.Entry) { s.ex.opPage(s, -1, es) }))...)
		}, func(res pgrid.OpResult) { s.onEntries(res.Entries) })
	}
}

// issueRank keeps at most rankAhead ordered shards beyond the release
// frontier in flight. Descending ranks issue shards high-to-low (the
// shard list was reversed at openScan) and ask the overlay to serve
// each partition's pages top-down, so pages arrive in ranking order
// for both directions.
func (s *stage) issueRank() {
	for s.nextIssue < len(s.shards) && s.nextIssue < s.nextRel+s.rankAhead {
		slot := s.nextIssue
		s.nextIssue++
		r := s.shards[slot]
		s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
			return s.ex.eng.peer.RangeQuery(s.scanKind, r, cb, s.opts(pgrid.WithDesc(s.rankDesc),
				pgrid.WithPages(func(es []store.Entry) { s.ex.opPage(s, slot, es) }))...)
		}, func(pgrid.OpResult) { s.onRankShard(slot) })
	}
}

// opPage is the streaming re-entry point from the overlay: one page
// (or one partition's shard answer) enters the pipeline under pmu.
// slot < 0 marks an unordered scan; otherwise the page belongs to the
// rank stage's ordered shard at that slot.
func (ex *Exec) opPage(s *stage, slot int, entries []store.Entry) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.stopped || ex.migrated || ex.win.closed {
		return
	}
	if slot < 0 {
		s.onEntries(entries)
		return
	}
	s.onRankPage(slot, entries)
}

// onRankPage handles one page of an ordered shard. Pages arrive in
// ranking order within a shard for BOTH directions (descending ranks
// ask the overlay to page each partition top-down), so when the shard
// sits exactly at the release frontier, its pages flow straight into
// the join — which is what lets a top-k threshold stop fire mid-shard
// and cancel the remaining page pulls. Pages of shards beyond the
// frontier are buffered until release.
func (s *stage) onRankPage(slot int, entries []store.Entry) {
	if len(entries) == 0 {
		return
	}
	if slot == s.nextRel {
		s.onEntries(entries)
		return
	}
	s.shardBuf[slot] = append(s.shardBuf[slot], entries...)
}

// onRankShard marks an ordered shard complete and releases the
// contiguous prefix of completed shards in ranking order, then flushes
// the buffered pages of the shard now sitting at the frontier so its
// remaining pages can stream directly.
func (s *stage) onRankShard(slot int) {
	s.shardOK[slot] = true
	for s.nextRel < len(s.shards) && s.shardOK[s.nextRel] {
		entries := s.shardBuf[s.nextRel]
		s.shardBuf[s.nextRel] = nil
		s.nextRel++
		s.onEntries(entries)
		if s.ex.stopped || s.ex.migrated {
			return
		}
	}
	if s.nextRel < len(s.shards) && len(s.shardBuf[s.nextRel]) > 0 {
		entries := s.shardBuf[s.nextRel]
		s.shardBuf[s.nextRel] = nil
		s.onEntries(entries)
		if s.ex.stopped || s.ex.migrated {
			return
		}
	}
	s.issueRank()
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
	case modeScan:
		if s.rank {
			return s.nextRel == len(s.shards) && s.opsOut == 0
		}
		return s.issuedAll && s.opsOut == 0
	case modeFixed:
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

// submitOp routes one overlay operation through the query's window,
// tracking the stage's outstanding count for EOS detection.
func (s *stage) submitOp(issue func(cb func(pgrid.OpResult)) *pgrid.Handle, complete func(pgrid.OpResult)) {
	s.opsOut++
	s.ex.win.submit(issue, func(res pgrid.OpResult) {
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
	// the threshold test proves no better row can arrive.
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
