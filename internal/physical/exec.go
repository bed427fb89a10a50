package physical

import (
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"unistore/internal/algebra"
	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/qgram"
	"unistore/internal/simnet"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// Reoptimizer lets a plan host revise the remaining steps with its own
// statistics before continuing — the paper's adaptive, repeatedly
// applied optimization. The tail travels with the plan so limit-aware
// costing applies at every host. A nil Reoptimizer keeps plans as
// compiled.
type Reoptimizer interface {
	Rechoose(steps []Step, tail Tail, bindingCount int, peer *pgrid.Peer) []Step
}

// hostKey identifies a hosted (migrated) plan globally: the root
// origin plus the root's query id. Different origins allocate query
// ids independently, so the pair is the unit of uniqueness.
type hostKey struct {
	origin simnet.NodeID
	qid    uint64
}

// Engine attaches query processing to one peer: it owns the peer's app
// handler, hosts migrated plans, and tracks queries this peer
// originated. An Engine is safe for concurrent use: multiple
// goroutines may Start/Run/Open queries against it in the network's
// concurrent mode.
type Engine struct {
	peer  *pgrid.Peer
	reopt Reoptimizer

	mu      sync.Mutex
	seq     uint64
	queries map[uint64]*Exec
	// hosted tracks migrated plans this engine is executing (or has
	// re-shipped onward), so a cancelMsg from the origin can stop them
	// — or chase them one hop further.
	hosted map[hostKey]*Exec
	// canceledHosts tombstones cancellations that arrived before their
	// planMsg (both are routed independently); the plan is dropped on
	// arrival instead of executed. Values are the simulated creation
	// instant: tombstones whose plan never shows up (a cancel that
	// lost the race with normal completion, a lost planMsg) are pruned
	// after hostedForwardTTL so benign races cannot fill the table.
	canceledHosts map[hostKey]time.Duration

	// probeCap bounds how many distinct bound values a range-strategy
	// step resolves with streaming exact lookups before escalating to a
	// range scan.
	probeCap int
	// parallelism bounds the per-query in-flight window: the pipeline
	// issues at most this many overlay operations at once across all
	// its stages, topping the window up as completions arrive. 0 =
	// issue everything as soon as it is derivable (full fan-out);
	// 1 = strictly sequential.
	parallelism int
	// rangeShards splits each range scan into this many key-space
	// shards showered independently. 1 = a single shower (default).
	rangeShards int
}

// planMsg carries a mutant plan to its next host. TC is the trace
// context the hosted remainder continues under (zero when the query is
// untraced); Spans accumulates the spans of hosts earlier in the
// migration chain, so the final host ships the complete set home.
type planMsg struct {
	Steps    []Step
	Tail     Tail
	Bindings []algebra.Binding
	Origin   simnet.NodeID
	RootQID  uint64
	Hops     int
	TC       trace.Ctx
	Spans    []trace.Span
}

func (m planMsg) WireSize() int {
	s := 64 + len(m.Steps)*48
	for _, b := range m.Bindings {
		s += 24 * len(b)
	}
	s += m.TC.WireSize()
	for _, sp := range m.Spans {
		s += spanWireSize(sp)
	}
	return s
}

// spanWireSize estimates one full span's encoded size in an app
// payload (ids, counters and timestamps at varint-ish cost, plus the
// packed path and the stage label).
func spanWireSize(sp trace.Span) int {
	return 56 + len(sp.Path)/8 + len(sp.Stage) + len(sp.Kind)
}

// resultMsg returns final bindings to the query origin, carrying the
// hosted remainder's spans home when the query is traced.
type resultMsg struct {
	RootQID  uint64
	Bindings []algebra.Binding
	Hops     int
	Spans    []trace.Span
}

func (m resultMsg) WireSize() int {
	s := 16
	for _, b := range m.Bindings {
		s += 24 * len(b)
	}
	for _, sp := range m.Spans {
		s += spanWireSize(sp)
	}
	return s
}

// cancelMsg chases a migrated plan: the origin (or an intermediate
// host forwarding along the migration chain) tells the current host to
// stop executing the remainder and release its pending overlay
// operations. TC ties the cancellation to the query's trace.
type cancelMsg struct {
	Origin  simnet.NodeID
	RootQID uint64
	TC      trace.Ctx
}

func (m cancelMsg) WireSize() int { return 16 + m.TC.WireSize() }

func init() {
	// Register the application payloads (and the interface-typed AST
	// nodes they embed in Step.Filters) with the wire codec, so mutant
	// plans survive real transports the same way they cross the simnet.
	gob.Register(planMsg{})
	gob.Register(resultMsg{})
	gob.Register(cancelMsg{})
	gob.Register(vql.Cmp{})
	gob.Register(vql.And{})
	gob.Register(vql.Or{})
	gob.Register(vql.Not{})
	gob.Register(vql.BoolFunc{})
	gob.Register(vql.VarOperand{})
	gob.Register(vql.LitOperand{})
	gob.Register(vql.FuncOperand{})
}

// NewEngine wires an engine to a peer, installing the app handler that
// receives mutant plans and results.
func NewEngine(p *pgrid.Peer, reopt Reoptimizer) *Engine {
	e := &Engine{peer: p, reopt: reopt, queries: make(map[uint64]*Exec),
		hosted: make(map[hostKey]*Exec), canceledHosts: make(map[hostKey]time.Duration),
		probeCap: 64, parallelism: 0, rangeShards: 1}
	p.SetAppHandler(e.handleApp)
	return e
}

// Peer returns the engine's peer.
func (e *Engine) Peer() *pgrid.Peer { return e.peer }

// SetParallelism bounds the per-query fan-out window: at most n
// overlay operations (probes, range shards, gram queries) in flight at
// once across the whole pipeline. n == 0 restores the unbounded full
// fan-out; n == 1 degrades to the strictly sequential
// probe-wait-probe path (the baseline the benchmarks compare against).
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.parallelism = n
}

// SetRangeShards makes every range scan fan out as n key-space shards
// showered independently (n <= 1 disables sharding). Sharding is also
// what gives top-k queries something to skip: an early-out cancels the
// shards not yet issued.
func (e *Engine) SetRangeShards(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 1 {
		n = 1
	}
	e.rangeShards = n
}

func (e *Engine) window() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallelism
}

func (e *Engine) shards() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rangeShards
}

func (e *Engine) handleApp(_ *pgrid.Peer, payload any, from simnet.NodeID, hops int) {
	switch m := payload.(type) {
	case planMsg:
		// Host a migrated plan: re-optimize the remainder, continue.
		key := hostKey{m.Origin, m.RootQID}
		steps := m.Steps
		if e.reopt != nil {
			steps = e.reopt.Rechoose(steps, m.Tail, len(m.Bindings), e.peer)
		}
		ex := &Exec{
			eng: e, steps: steps, tail: m.Tail,
			seeded: true, seedRows: m.Bindings,
			origin: m.Origin, rootQID: m.RootQID,
			ctx:     context.Background(),
			started: e.peer.Net().Now(),
			doneCh:  make(chan struct{}),
		}
		if m.TC.Active() && e.peer.TracingEnabled() {
			// The hosted remainder continues the origin's trace: a
			// "plan" span roots this host's work, charged the plan
			// message's own delivery cost.
			now := int64(e.peer.Net().Now())
			id := e.peer.NewTraceID()
			ex.rootSpan = trace.Span{
				ID: id, Parent: m.TC.Parent, TraceID: m.TC.TraceID,
				Kind: "plan", Peer: int64(e.peer.ID()), Path: e.peer.Path().String(),
				Flags: m.TC.Flags, Depth: m.TC.Depth,
				MsgsIn: hops, BytesIn: hops * m.WireSize(),
				Enq: now, Srv: now,
			}
			ex.tc = m.TC.Child(id)
			ex.remote = m.Spans
		}
		e.mu.Lock()
		if _, canceled := e.canceledHosts[key]; canceled {
			// The cancel overtook the plan: never start it.
			delete(e.canceledHosts, key)
			e.mu.Unlock()
			return
		}
		e.sweepHostedLocked()
		e.hosted[key] = ex
		e.mu.Unlock()
		ex.pmu.Lock()
		ex.startPipeline()
		ex.pmu.Unlock()
	case resultMsg:
		e.mu.Lock()
		ex, ok := e.queries[m.RootQID]
		e.mu.Unlock()
		if !ok || ex.Done() {
			return
		}
		if len(m.Spans) > 0 {
			// The first span is the hosting chain's root; charge the
			// result message's own delivery to it so the assembled
			// trace keeps reconciling with the transport counters.
			sp := append([]trace.Span(nil), m.Spans...)
			mh := hops
			if mh < 1 {
				mh = 1
			}
			sp[0].MsgsOut += mh
			sp[0].BytesOut += mh * m.WireSize()
			ex.mu.Lock()
			ex.remote = append(ex.remote, sp...)
			ex.mu.Unlock()
		}
		ex.finishWith(m.Bindings)
	case cancelMsg:
		key := hostKey{m.Origin, m.RootQID}
		now := e.peer.Net().Now()
		e.mu.Lock()
		ex, ok := e.hosted[key]
		if !ok {
			// Plan not here (yet): tombstone so a late arrival is
			// dropped instead of executed. At the cap, the OLDEST
			// tombstone gives way — dropping the new one would let the
			// one plan we know was just canceled run to completion.
			e.pruneTombstonesLocked(now)
			if len(e.canceledHosts) >= maxCancelTombstones {
				oldest, oldestBorn := hostKey{}, now+1
				for k, born := range e.canceledHosts {
					if born < oldestBorn {
						oldest, oldestBorn = k, born
					}
				}
				delete(e.canceledHosts, oldest)
			}
			e.canceledHosts[key] = now
			e.mu.Unlock()
			return
		}
		delete(e.hosted, key)
		e.mu.Unlock()
		if target, forward := ex.cancelHosted(); forward {
			// The plan moved on before the cancel caught up: chase it.
			e.peer.SendApp(target, m)
		}
	}
}

// maxCancelTombstones bounds the canceled-before-arrival memory
// between prunes.
const maxCancelTombstones = 1024

// hostedForwardTTL is how long (simulated) completed bookkeeping is
// kept for cancel handling: re-shipped hosted entries (needed to
// forward a cancel along the migration chain) and tombstones (needed
// to drop a plan the cancel overtook). Past the overlay's operation
// deadline the origin has long given up, so chasing is pointless.
const hostedForwardTTL = 2 * time.Minute

// pruneTombstonesLocked drops tombstones older than the TTL — the
// cancels that lost a benign race with normal completion and whose
// planMsg will therefore never arrive. Callers hold e.mu.
func (e *Engine) pruneTombstonesLocked(now time.Duration) {
	for k, born := range e.canceledHosts {
		if now-born > hostedForwardTTL {
			delete(e.canceledHosts, k)
		}
	}
}

// sweepHostedLocked drops completed hosted plans once they both
// accumulate and age out. Entries that re-shipped onward stay until
// the TTL because they are what forwards a late cancel along the
// migration chain; sweeping them early would quietly reintroduce
// run-to-completion remainders. Callers hold e.mu.
func (e *Engine) sweepHostedLocked() {
	if len(e.hosted) < 64 {
		return
	}
	now := e.peer.Net().Now()
	for k, ex := range e.hosted {
		if ex.Done() && now-ex.startedAt() > hostedForwardTTL {
			delete(e.hosted, k)
		}
	}
}

// dropHosted removes a hosted plan's registration once it completed,
// guarding on identity so a plan re-registered under the same key is
// untouched.
func (e *Engine) dropHosted(key hostKey, ex *Exec) {
	e.mu.Lock()
	if e.hosted[key] == ex {
		delete(e.hosted, key)
	}
	e.mu.Unlock()
}

// HostedPlans reports how many migrated plans this engine currently
// tracks (running, or re-shipped and awaiting potential cancels) —
// leak detection in tests.
func (e *Engine) HostedPlans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ex := range e.hosted {
		if !ex.Done() {
			n++
		}
	}
	return n
}

// Exec drives one query (or the hosted remainder of one) at one peer.
//
// Execution is a streaming pipeline: one stage per plan step, results
// flowing between stages as soon as overlay responses arrive, all
// overlay operations scheduled through a single bounded in-flight
// window, and the tail sink stopping the whole pipeline the moment a
// LIMIT or top-k bound proves no further traffic can change the
// result. Pipeline state is guarded by pmu and mutated only through
// the window's completion path; externally visible state (done,
// result, counters) is guarded by mu, with the completion channel
// ordering the final result for waiters.
type Exec struct {
	eng      *Engine
	steps    []Step
	tail     Tail
	origin   simnet.NodeID
	rootQID  uint64
	seeded   bool
	seedRows []algebra.Binding
	ctx      context.Context

	// Pipeline state (guarded by pmu).
	pmu    sync.Mutex
	win    *opWindow
	stages []*stage
	sink   *tailSink
	// agg is the aggregation coordinator (nil for non-aggregating
	// tails): merges pushed-down partial states or folds centralized
	// rows, then finalizes groups through the sink.
	agg      *aggRun
	stopped  bool
	migrated bool
	// migratedTo is the region key the plan was shipped to — where a
	// cancel must be sent to stop the hosted remainder.
	migratedTo keys.Key

	mu       sync.Mutex
	started  time.Duration
	finished time.Duration
	first    time.Duration
	done     bool
	result   []algebra.Binding
	onDone   func(*Exec)
	doneCh   chan struct{}
	cursor   *Cursor

	// Stats (guarded by mu while running; stable once Done).
	opsIssued int
	maxHops   int

	// Tracing. tc and rootSpan are set at creation and immutable; the
	// zero tc means the query is untraced and every tracing path is a
	// no-op. tqids and remote are guarded by mu; drained only mutates
	// under pmu (span collection).
	tc       trace.Ctx
	rootSpan trace.Span
	tqids    []uint64
	remote   []trace.Span
	drained  []trace.Span
}

// Start begins executing a compiled plan at the engine's peer,
// returning the Exec handle. The callback (optional) fires on
// completion; Wait drives the network (deterministic mode) or blocks
// until the responses land (concurrent mode).
func (e *Engine) Start(p *Plan, onDone func(*Exec)) *Exec {
	return e.StartCtx(context.Background(), p, onDone)
}

// StartCtx is Start with a cancellation context: canceling ctx stops
// the pipeline, cancels the query's pending overlay operations and
// completes the Exec with whatever rows had been produced.
func (e *Engine) StartCtx(ctx context.Context, p *Plan, onDone func(*Exec)) *Exec {
	ex := e.newExec(ctx, p, onDone)
	ex.pmu.Lock()
	ex.startPipeline()
	ex.pmu.Unlock()
	return ex
}

// Open starts a plan and returns a pull cursor over its result
// stream — the Volcano-style Open half of the Open/Next/Close
// contract; the cursor's Next and Close complete it. Rows become
// available as the pipeline emits them, before the query finishes.
func (e *Engine) Open(ctx context.Context, p *Plan) *Cursor {
	ex := e.newExec(ctx, p, nil)
	cur := newCursor(ex)
	ex.cursor = cur
	ex.pmu.Lock()
	ex.startPipeline()
	ex.pmu.Unlock()
	return cur
}

func (e *Engine) newExec(ctx context.Context, p *Plan, onDone func(*Exec)) *Exec {
	if ctx == nil {
		ctx = context.Background()
	}
	ex := &Exec{
		eng:    e,
		steps:  p.Steps,
		tail:   p.Tail,
		origin: e.peer.ID(),
		ctx:    ctx,
		onDone: onDone,
		doneCh: make(chan struct{}),
	}
	e.mu.Lock()
	e.seq++
	ex.rootQID = e.seq
	e.queries[ex.rootQID] = ex
	e.mu.Unlock()
	ex.started = e.peer.Net().Now()
	if e.peer.TracingEnabled() {
		now := int64(ex.started)
		ex.rootSpan = trace.Span{
			ID: e.peer.NewTraceID(), TraceID: e.peer.NewTraceID(),
			Kind: "query", Peer: int64(e.peer.ID()), Path: e.peer.Path().String(),
			Enq: now, Srv: now,
		}
		ex.tc = trace.Ctx{TraceID: ex.rootSpan.TraceID, Parent: ex.rootSpan.ID, Depth: 1}
	}
	return ex
}

// Run compiles and executes a parsed query end to end, driving the
// simulated network until completion; the synchronous entry point.
func (e *Engine) Run(q *vql.Query) ([]algebra.Binding, *Exec, error) {
	plan, err := CompileQuery(q)
	if err != nil {
		return nil, nil, err
	}
	ex := e.Start(plan, nil)
	ex.Wait()
	return ex.Result(), ex, nil
}

// RunPlan executes an already-compiled plan synchronously.
func (e *Engine) RunPlan(p *Plan) ([]algebra.Binding, *Exec) {
	return e.RunPlanCtx(context.Background(), p)
}

// RunPlanCtx executes a compiled plan synchronously under a
// cancellation context.
func (e *Engine) RunPlanCtx(ctx context.Context, p *Plan) ([]algebra.Binding, *Exec) {
	ex := e.StartCtx(ctx, p, nil)
	ex.Wait()
	return ex.Result(), ex
}

// waitTimeout bounds a synchronous query in simulated time: generous
// for any experiment topology, yet guaranteeing termination when
// message loss or churn swallows responses while periodic timers keep
// the event queue alive.
const waitTimeout = 5 * time.Minute

// Wait blocks until the query completes. In deterministic mode it
// pumps the network; in concurrent mode it waits on the completion
// signal (the network's own goroutines deliver the responses). A
// canceled context terminates the query early with partial results.
func (ex *Exec) Wait() {
	net := ex.eng.peer.Net()
	d := pgrid.DriverOf(net)
	if d == nil {
		select {
		case <-ex.doneCh:
		case <-ex.ctx.Done():
			ex.Cancel()
			<-ex.doneCh
		case <-time.After(net.WallTimeout(waitTimeout)):
		}
		return
	}
	deadline := net.Now() + waitTimeout
	for !ex.Done() && d.Pending() > 0 && net.Now() < deadline {
		if ex.ctx.Err() != nil {
			ex.Cancel()
			return
		}
		d.Step()
	}
}

// Done reports completion.
func (ex *Exec) Done() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.done
}

// Result returns the final bindings (nil until Done).
func (ex *Exec) Result() []algebra.Binding {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.result
}

// Elapsed returns the simulated time the query took.
func (ex *Exec) Elapsed() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.finished - ex.started
}

// TimeToFirst returns the simulated time until the first result row
// was available: for streaming tails the instant the first row left
// the pipeline, for blocking tails (skyline, full sorts) the
// completion instant.
func (ex *Exec) TimeToFirst() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.first > 0 {
		return ex.first - ex.started
	}
	return ex.finished - ex.started
}

// OpsIssued returns the number of overlay operations the query issued.
func (ex *Exec) OpsIssued() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.opsIssued
}

// MaxHops returns the maximum routing distance observed.
func (ex *Exec) MaxHops() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.maxHops
}

// Bindings returns the rows the tail sink has accumulated so far
// (diagnostics; the final result once Done). The completed path reads
// only the result, so completion callbacks may call it safely.
func (ex *Exec) Bindings() []algebra.Binding {
	ex.mu.Lock()
	if ex.done {
		defer ex.mu.Unlock()
		return ex.result
	}
	ex.mu.Unlock()
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.sink == nil {
		return nil
	}
	return ex.sink.rows
}

func (ex *Exec) noteOp() {
	ex.mu.Lock()
	ex.opsIssued++
	ex.mu.Unlock()
}

func (ex *Exec) noteHops(h int) {
	ex.mu.Lock()
	if h > ex.maxHops {
		ex.maxHops = h
	}
	ex.mu.Unlock()
}

func (ex *Exec) noteFirstResult() {
	now := ex.eng.peer.Net().Now()
	ex.mu.Lock()
	if ex.first == 0 {
		ex.first = now
	}
	ex.mu.Unlock()
}

// --- Pipeline lifecycle -------------------------------------------------------

// startPipeline builds and opens the stage pipeline. Callers hold pmu.
func (ex *Exec) startPipeline() {
	ex.win = newOpWindow(ex, ex.eng.window())
	if ex.tail.HasAgg() {
		// The pushdown choice made at compile time is re-validated
		// against this execution: a hosted remainder (seeded rows) or a
		// reordered plan that no longer qualifies falls back to the
		// centralized path, never to a wrong answer.
		push := ex.tail.AggPushdown && !ex.seeded && aggPushdownable(ex.steps, ex.tail)
		ex.agg = newAggRun(ex, push)
	}
	ex.sink = newTailSink(ex)
	if ex.agg != nil {
		ex.agg.configureStream(ex.sink)
	}
	if ex.ctx.Err() != nil {
		// Canceled before the first operation: keep the promise that
		// nothing is sent on behalf of a dead query.
		ex.stopped = true
		ex.finishPipeline(nil)
		return
	}
	if len(ex.steps) == 0 {
		if ex.agg != nil {
			ex.agg.started = true
			ex.agg.addRows(ex.seedRows)
			ex.finishPipeline(nil)
			return
		}
		ex.finishPipeline(ex.seedRows)
		return
	}
	for i, st := range ex.steps {
		ex.stages = append(ex.stages, newStage(ex, i, st))
	}
	if ex.sink.mode == sinkRank {
		last := ex.stages[len(ex.stages)-1]
		last.rank = true
		last.rankDesc = ex.tail.OrderBy[0].Desc
	}
	for _, s := range ex.stages {
		s.classify()
	}
	if ex.agg != nil && ex.agg.pushdown {
		ex.stages[0].aggPush = true
	}
	ex.openFrom(0)
	s0 := ex.stages[0]
	if s0.hasUp && len(ex.seedRows) > 0 {
		s0.addLeft(ex.seedRows)
	}
	s0.upstreamEOS()
}

// openFrom opens stages i.. in order, halting before a barrier stage
// whose upstream is still flowing (it opens itself at upstream EOS —
// or migrates instead).
func (ex *Exec) openFrom(i int) {
	for j := i; j < len(ex.stages); j++ {
		s := ex.stages[j]
		if s.barrier() && !s.upDone {
			return
		}
		s.open()
	}
}

// migrateFrom sends the remaining plan (steps idx..) with the
// materialized upstream rows to the peer owning the next region.
// Callers hold pmu.
func (ex *Exec) migrateFrom(idx int) {
	s := ex.stages[idx]
	target, _ := shipTarget(s.st)
	// Shipping must not loop: the receiving host starts at step 0 with
	// Ship cleared on the first step.
	steps := append([]Step(nil), ex.steps[idx:]...)
	steps[0].Ship = false
	m := planMsg{
		Steps:    steps,
		Tail:     ex.tail,
		Bindings: s.join.LeftRows(),
		Origin:   ex.origin,
		RootQID:  ex.rootQID,
	}
	if ex.tc.Active() {
		// The remainder's host roots its work under the migrating
		// stage's span; spans produced here travel along so the final
		// host can ship the whole chain home.
		m.TC = trace.Ctx{TraceID: ex.tc.TraceID, Parent: s.spanID, Depth: ex.tc.Depth + 1}
		m.Spans = ex.collectSpansLocked()
	}
	ex.migrated = true
	ex.migratedTo = target
	ex.win.close()
	ex.eng.peer.SendApp(target, m)
	// This Exec's role ends here; the result flows to ex.origin.
	if ex.origin == ex.eng.peer.ID() {
		// Root stays registered, waiting for resultMsg.
		return
	}
	ex.markDone()
}

// earlyOut stops the pipeline once the sink has proven the result
// cannot improve: queued operations are dropped, in-flight ones
// canceled, and the query completes with the rows at hand. Callers
// hold pmu.
func (ex *Exec) earlyOut() {
	if ex.stopped {
		return
	}
	ex.stopped = true
	ex.win.close()
	ex.finishPipeline(ex.sink.rows)
}

// finishPipeline normalizes the accumulated rows through the tail and
// completes the query. Callers hold pmu. With an aggregation the sink
// delivered finalized GROUP rows (plus whatever groups a cancel left
// unflushed), so only the post-aggregation clauses re-apply —
// re-aggregating group rows would count groups instead of rows.
func (ex *Exec) finishPipeline(rows []algebra.Binding) {
	ex.win.close()
	if ex.agg != nil {
		ex.finishWith(ex.tail.post(ex.agg.drainInto(rows)))
		return
	}
	ex.finishWith(ex.tail.Apply(rows))
}

// Cancel terminates the query early: the pipeline stops, queued
// operations are dropped, pending overlay operations are canceled at
// the peer, and the Exec completes with the rows produced so far. If
// the plan migrated, a cancel message chases it to the hosting peer
// (and onward along any further migrations) so the remote remainder
// stops too instead of running to completion. Canceling a completed
// query is a no-op.
func (ex *Exec) Cancel() {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.Done() {
		return
	}
	if ex.migrated {
		// The plan is executing elsewhere: tell the host to stop, then
		// release the local waiter.
		ex.eng.peer.SendApp(ex.migratedTo, cancelMsg{Origin: ex.origin, RootQID: ex.rootQID, TC: ex.tc})
		ex.finishWith(nil)
		return
	}
	if ex.stopped {
		return
	}
	ex.stopped = true
	ex.win.close()
	var rows []algebra.Binding
	if ex.sink != nil {
		rows = ex.sink.rows
	}
	ex.finishPipeline(rows)
}

// shipTarget picks the region key the step's data lives at.
func shipTarget(st Step) (keys.Key, bool) {
	pat := st.Pat
	switch st.Strat {
	case StratOIDLookup:
		if !pat.S.IsVar() {
			return triple.OIDKey(pat.S.Val.Str), true
		}
	case StratAVLookup:
		if !pat.A.IsVar() && !pat.V.IsVar() {
			return triple.AVKey(pat.A.Val.Str, pat.V.Val), true
		}
	case StratAVRange, StratQGram:
		if !pat.A.IsVar() {
			return triple.AVPrefixRange(pat.A.Val.Str).Lo, true
		}
	case StratValLookup:
		if !pat.V.IsVar() {
			return triple.ValKey(pat.V.Val), true
		}
	}
	return keys.Key{}, false
}

// cancelHosted stops a hosted (migrated-in) plan without shipping any
// result home: the pipeline halts, queued operations are dropped and
// pending overlay operations released. If this host already re-shipped
// the plan onward, it reports the next region so the caller can
// forward the cancel along the chain.
func (ex *Exec) cancelHosted() (next keys.Key, forward bool) {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	if ex.migrated {
		return ex.migratedTo, true
	}
	if ex.Done() {
		return keys.Key{}, false
	}
	ex.stopped = true
	ex.win.close()
	ex.markDone()
	return keys.Key{}, false
}

// startedAt returns the simulated instant the Exec was created.
func (ex *Exec) startedAt() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.started
}

// Migrated reports whether this Exec shipped its plan to another peer
// (tests synchronize on the migration instant through it).
func (ex *Exec) Migrated() bool {
	ex.pmu.Lock()
	defer ex.pmu.Unlock()
	return ex.migrated
}

// markDone flips the done flag and closes the completion channel once.
func (ex *Exec) markDone() bool {
	ex.mu.Lock()
	if ex.done {
		ex.mu.Unlock()
		return false
	}
	ex.done = true
	close(ex.doneCh)
	ex.mu.Unlock()
	return true
}

func (ex *Exec) finishWith(bs []algebra.Binding) {
	if ex.origin != ex.eng.peer.ID() {
		// Hosted plan: tail already applied here; ship the result home
		// with the migration chain's spans (every caller reaching this
		// branch holds pmu, which span collection requires).
		msg := resultMsg{RootQID: ex.rootQID, Bindings: bs}
		if ex.tc.Active() {
			msg.Spans = ex.collectSpansLocked()
		}
		ex.eng.peer.SendAppDirect(ex.origin, msg)
		ex.markDone()
		ex.eng.dropHosted(hostKey{ex.origin, ex.rootQID}, ex)
		return
	}
	ex.mu.Lock()
	if ex.done {
		ex.mu.Unlock()
		return
	}
	ex.result = bs
	ex.finished = ex.eng.peer.Net().Now()
	ex.done = true
	close(ex.doneCh)
	onDone := ex.onDone
	cur := ex.cursor
	ex.mu.Unlock()
	ex.eng.mu.Lock()
	delete(ex.eng.queries, ex.rootQID)
	ex.eng.mu.Unlock()
	if cur != nil {
		cur.finish(bs)
	}
	if onDone != nil {
		onDone(ex)
	}
}

// applyStepPredicates evaluates the step's filters and similarity
// predicates over a binding set (in place; the input must be freshly
// allocated by the caller).
func applyStepPredicates(st Step, bs []algebra.Binding) []algebra.Binding {
	if len(st.Filters) == 0 && len(st.Sims) == 0 {
		return bs
	}
	out := bs[:0]
	for _, b := range bs {
		ok := true
		for _, f := range st.Filters {
			if !algebra.EvalExpr(f, b) {
				ok = false
				break
			}
		}
		for _, s := range st.Sims {
			if !ok {
				break
			}
			v, bound := b[s.Var]
			if !bound || !qgram.WithinDistance(v.String(), s.Target, s.MaxDist) {
				ok = false
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// String renders execution state.
func (ex *Exec) String() string {
	ex.pmu.Lock()
	stages := len(ex.stages)
	var eos int
	for _, s := range ex.stages {
		if s.eosDown {
			eos++
		}
	}
	ex.pmu.Unlock()
	return fmt.Sprintf("exec{stages=%d/%d done=%v}", eos, stages, ex.Done())
}
