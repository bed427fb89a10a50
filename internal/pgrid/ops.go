package pgrid

import (
	"fmt"
	"time"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// OpResult is the outcome of one overlay operation.
type OpResult struct {
	Entries   []store.Entry
	Count     int  // matching entries (meaningful for probes too)
	Hops      int  // maximum routing hops over all branches
	Responses int  // responding partitions
	Complete  bool // all expected responses (or shares) arrived
	// Spans is a snapshot of the operation's trace at completion (nil
	// untraced). Late riders keep accumulating afterwards; TakeTrace
	// drains the final set.
	Spans []trace.Span
}

// OpOption customizes an issued operation.
type OpOption func(*opSettings)

type opSettings struct {
	tc     trace.Ctx
	agg    *agg.Spec
	onAgg  func([]agg.State)
	onPage func(keys.Key, []store.Entry)
	desc   bool
}

func resolveOpts(opts []OpOption) opSettings {
	var st opSettings
	for _, o := range opts {
		o(&st)
	}
	return st
}

// WithTrace runs the operation under a trace context (tracing must be
// enabled in Config): the origin records a root span, every request
// carries a child context, and serving peers' spans ride home into the
// origin's accumulator — drained with Peer.TakeTrace(handle.QID()).
func WithTrace(tc trace.Ctx) OpOption {
	return func(s *opSettings) { s.tc = tc }
}

// WithAgg pushes an aggregation down to the serving peers: each one
// matches its entries against the spec's pattern and answers with
// per-group partial states instead of rows, streamed to onGroups as
// they arrive. A scan pages them by Config.PageSize groups. States are
// mergeable in any order, and the claim/coverage failover keeps each
// partition's (or key's) contribution exactly-once, so the
// coordinator's merge is exact even under churn.
func WithAgg(spec *agg.Spec, onGroups func([]agg.State)) OpOption {
	return func(s *opSettings) { s.agg, s.onAgg = spec, onGroups }
}

// WithPages streams every response's entries (each page of a paged
// scan, each partition's or key batch's answer) to onPage the moment it
// arrives, in key order per partition, instead of accumulating them in
// the final OpResult, which then carries counts only. part is the
// partition that served the entries: the path a paged scan's stream is
// filed under, else the responder's path. Pages of different
// partitions interleave, so a consumer that needs one global key order
// has it only while part covers the whole scanned range. Canceling the handle between pages stops the pull loop:
// remaining pages are never requested. onPage runs outside the peer
// lock, always before the completion callback.
func WithPages(onPage func(part keys.Key, es []store.Entry)) OpOption {
	return func(s *opSettings) { s.onPage = onPage }
}

// WithDesc sets a range scan's direction: desc serves (and pages) every
// partition's overlap from the top of the key range down, so descending
// ranked scans stream pages in ranking order instead of buffering a
// whole partition for reversal. Exact-key lookups ignore it.
func WithDesc(desc bool) OpOption {
	return func(s *opSettings) { s.desc = desc }
}

// Handle tracks an asynchronous overlay operation.
type Handle struct {
	peer *Peer
	op   *pendingOp
	qid  uint64
}

// QID returns the operation's request id — the key Peer.TakeTrace
// drains origin-side spans under.
func (h *Handle) QID() uint64 { return h.qid }

// Done reports whether the operation completed.
func (h *Handle) Done() bool {
	h.peer.mu.RLock()
	defer h.peer.mu.RUnlock()
	return h.op.done
}

// Result snapshots the operation outcome (valid any time; Complete
// tells whether it is final).
func (h *Handle) Result() OpResult {
	h.peer.mu.RLock()
	defer h.peer.mu.RUnlock()
	return h.op.result()
}

// result builds the OpResult snapshot; callers hold the peer's mu.
func (o *pendingOp) result() OpResult {
	return OpResult{
		Entries:   o.entries,
		Count:     o.count,
		Hops:      o.hops,
		Responses: o.responses,
		Complete:  o.complete,
	}
}

// Wait blocks until the operation completes, returning the (possibly
// partial) result. In deterministic mode it pumps the network until
// completion or until simulated time advances by timeout (zero: until
// the event queue drains). In concurrent mode it blocks on the
// operation's completion signal, bounding the wait by the timeout
// scaled to wall clock.
func (h *Handle) Wait(timeout time.Duration) OpResult {
	net := h.peer.net
	d := driver(net)
	if d == nil {
		if timeout <= 0 {
			<-h.op.fin
		} else {
			select {
			case <-h.op.fin:
			case <-time.After(net.WallTimeout(timeout)):
			}
		}
		return h.Result()
	}
	if timeout <= 0 {
		d.RunWhile(func() bool { return !h.Done() })
	} else {
		deadline := net.Now() + timeout
		for !h.Done() && d.Pending() > 0 && net.Now() < deadline {
			d.Step()
		}
	}
	return h.Result()
}

// Cancel abandons the operation: the pending state is released
// immediately, the completion callback never fires, and responses still
// in flight are dropped on arrival. Canceling a completed (or already
// canceled) operation is a no-op. This is how the query executor's
// early termination turns "discard the answer" into "stop waiting for
// it" — combined with not issuing queued probes, a top-k early-out
// actually reduces network traffic instead of ignoring it.
func (h *Handle) Cancel() {
	p := h.peer
	p.mu.Lock()
	if h.op.done {
		p.mu.Unlock()
		return
	}
	h.op.done = true
	h.op.complete = false
	h.op.onDone = nil
	delete(p.pending, h.qid)
	close(h.op.fin)
	p.mu.Unlock()
	p.runFlow(p.flow.releaseOp(h.qid))
}

// PendingOps reports how many operations this peer originated that are
// still awaiting responses — zero once every query against the peer has
// completed or been canceled (leak detection in tests).
func (p *Peer) PendingOps() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pending)
}

// opDeadline bounds how long (in simulated time) an operation waits for
// missing responses before completing with whatever arrived — P-Grid's
// best-effort guarantee under churn and loss.
const opDeadline = 2 * time.Minute

// newOp registers a pending operation and returns its qid. op arrives
// with its completion rule (needShares / needResponses, whichever is
// positive) and its key-tracked, scan or insert state already set; st
// adds the streaming sinks. A deadline timer expires the operation with
// partial results if responses are lost. opKind names the operation in
// its trace root span, recorded when st carries an active trace context
// (and Config.Tracing is on).
func (p *Peer) newOp(op *pendingOp, opKind uint8, cb func(OpResult), st opSettings) uint64 {
	op.fin = make(chan struct{})
	op.aggSpec, op.onAgg, op.onPartial = st.agg, st.onAgg, st.onPage
	p.mu.Lock()
	p.reqSeq++
	qid := p.reqSeq
	p.pending[qid] = op
	op.onDone = func(o *pendingOp) {
		if cb != nil {
			res := o.result()
			res.Spans = p.peekTrace(qid)
			cb(res)
		}
	}
	p.mu.Unlock()
	if st.tc.Active() && p.cfg.Tracing {
		tc := p.beginOpTrace(qid, st.tc, opKind)
		p.mu.Lock()
		op.tc = tc
		p.mu.Unlock()
	}
	p.net.After(opDeadline, func() { p.expireOp(qid) })
	return qid
}

// nextQID allocates a bare request id from the operation sequence —
// for charges that settle by their own ack rather than a pendingOp
// (flow-controlled gossip). Sharing the sequence keeps flowKeys
// collision-free across both uses.
func (p *Peer) nextQID() uint64 {
	p.mu.Lock()
	p.reqSeq++
	qid := p.reqSeq
	p.mu.Unlock()
	return qid
}

// finishOpLocked marks the op done, removes it from the pending table
// and returns the completion callback to run after unlocking (the
// callback may start new operations on this peer, so it must not run
// under the lock). The returned closure also settles the operation's
// remaining flow-control charges — a completed or expired op must
// never keep credit pinned against a receiver. Callers hold p.mu and
// then invoke the result.
func (p *Peer) finishOpLocked(qid uint64, op *pendingOp, complete bool) func() {
	op.done = true
	op.complete = complete
	delete(p.pending, qid)
	close(op.fin)
	onDone := op.onDone
	return func() {
		p.runFlow(p.flow.releaseOp(qid))
		if onDone != nil {
			onDone(op)
		}
	}
}

// expireOp force-completes an operation whose responses went missing.
func (p *Peer) expireOp(qid uint64) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done {
		p.mu.Unlock()
		return
	}
	fire := p.finishOpLocked(qid, op, false)
	p.mu.Unlock()
	fire()
}

func (p *Peer) handleResponse(r queryResp, size int) {
	// Fold the responder's piggybacked receive window in first: the
	// fresh credit may flush deferred bulk sends toward it.
	p.runFlow(p.flow.window(r.From, r.WinBytes, r.WinMsgs))
	// Absorb the piggybacked span before ANY drop decision: a late or
	// duplicate-suppressed response still cost a real message, and the
	// trace's accounting must reconcile with the transport's.
	p.absorbRider(r.QID, r.TS, size)
	p.mu.Lock()
	p.learnRouteLocked(r.Path, r.From, r.Replicas)
	op, ok := p.pending[r.QID]
	if !ok || op.done {
		// The operation completed or was canceled: a continuation is
		// deliberately NOT pulled — the tail no longer needs rows, so
		// the remaining pages are never requested.
		p.mu.Unlock()
		return
	}
	if op.probeWant == nil {
		op.responses++
	} else if len(r.ProbeKeys) > 0 {
		// Key-tracked probe op: mark keys answered. A response that
		// answers nothing new is a hedged duplicate — its rows were
		// already delivered by the replica that won the race, so the
		// whole response is dropped; one that answers only SOME of its
		// keys (a late batch racing per-key routed fallbacks) keeps
		// only the entries of the newly answered keys. Either way
		// entries and completion accounting stay exact.
		newlySet := make(map[string]bool, len(r.ProbeKeys))
		newly := 0
		for _, k := range r.ProbeKeys {
			ks := k.String()
			if op.probeWant[ks] {
				delete(op.probeWant, ks)
				newlySet[ks] = true
				newly++
			}
		}
		if newly == 0 {
			p.mu.Unlock()
			return
		}
		if newly < len(r.ProbeKeys) {
			if op.aggSpec != nil {
				// Aggregated probe batches cannot be split per key: the
				// states fold every answered key's rows together, so
				// keeping this response would re-count the rows of keys
				// another response already delivered. Drop it whole and
				// put its keys back — the path that answered the others
				// (hedge resend, per-key routed fallback) also carries
				// the still-wanted keys, and the retry budget plus the
				// operation deadline backstop the rest.
				for ks := range newlySet {
					op.probeWant[ks] = true
				}
				p.mu.Unlock()
				return
			}
			kept := r.Entries[:0:0]
			for _, e := range r.Entries {
				if newlySet[e.Key.String()] {
					kept = append(kept, e)
				}
			}
			r.Entries = kept
			r.Count = len(kept)
		}
		op.responses += newly
		p.settleGroupsLocked(op, r.From, r.Replicas)
	}
	// A key-tracked response without ProbeKeys is trace-only (a probe
	// batch whose keys all re-routed): its rider was absorbed above; it
	// carries no rows and no completion signal.
	//
	// Pushed-down aggregation: decode the response's partial group
	// states. The stream check below reads the first group key, and they
	// stream out to onAgg after unlocking. States that fail to decode are
	// not delivered.
	var aggStates []agg.State
	if len(r.AggData) > 0 {
		if sts, err := agg.DecodeStates(r.AggData); err == nil {
			aggStates = sts
		}
	}
	// spath is the partition identity of a scan response: the paged
	// stream's StreamPath when the server's path moved mid-stream
	// (split, merge), the responder's current path otherwise.
	spath := r.ScanPath
	if spath.Len() == 0 {
		spath = r.Path
	}
	var cursor *scanCursor // the page's continuation memo, hedged below
	if op.scan != nil && spath.Len() > 0 {
		sc := op.scan
		key := spath.String()
		cl, claimed := sc.claims[key]
		if !claimed {
			if mcl, mkey := sc.splitClaim(r.From, spath); mcl != nil {
				// The server's partition split mid-stream: its stream now
				// covers only the deeper half it kept. Migrate the claim
				// (and cursor memo) to the deeper identity and classify
				// the abandoned sibling regions — covered, resumable at
				// the old cursor, or a gap for the coverage re-shower.
				p.migrateSplitClaimLocked(sc, mcl, mkey, spath)
				cl, claimed = mcl, true
			}
		}
		// Stream dedup, so no row or group is ever delivered twice. The
		// first responder for a partition owns its stream: another
		// replica's stream of it (a retry racing a slow-but-alive
		// original, or vice versa) is dropped whole, pages included, and
		// the retry timer releases claims of dead or stalled owners. A
		// partition that already answered in full takes nothing more.
		// And a page must resume at the partition's cursor: a pull hedge
		// can fork one server's stream, which then answers the original
		// pull and the hedge from one cursor with pages sized by two
		// windows, and the later answer repeats what the first delivered.
		if (claimed && cl.from != r.From) || sc.hasCovered(spath) ||
			!sc.cursors[key].resumedBy(r, aggStates) {
			p.mu.Unlock()
			return
		}
		now := p.net.Now()
		if claimed {
			cl.last = now
		} else {
			if sc.claims == nil {
				sc.claims = make(map[string]*scanClaim)
			}
			sc.claims[key] = &scanClaim{path: spath, from: r.From, last: now}
		}
		if r.Final {
			// Coverage bookkeeping for the churn re-shower: this
			// partition has fully answered.
			sc.covered = append(sc.covered, spath)
			delete(sc.cursors, key)
		} else if r.Cont != nil {
			if sc.cursors == nil {
				sc.cursors = make(map[string]*scanCursor)
			}
			cursor = &scanCursor{path: spath, cont: *r.Cont, from: r.From}
			if n := len(r.Entries); n > 0 {
				cursor.last = r.Entries[n-1]
			}
			sc.cursors[key] = cursor
		}
	}
	onPartial := op.onPartial
	var partial []store.Entry
	if onPartial != nil {
		partial = r.Entries // streamed out below, not accumulated
	} else {
		op.entries = append(op.entries, r.Entries...)
	}
	onAgg := op.onAgg
	op.count += r.Count
	op.shares += r.Share
	if r.Hops > op.hops {
		op.hops = r.Hops
	}
	pull := r.Cont != nil
	// A page pull chains on the span that produced the continuation, so
	// each partition's pages form a chain in the trace tree.
	pullTC := op.tc
	if r.TS != nil && pullTC.Active() {
		pullTC = trace.Ctx{TraceID: pullTC.TraceID, Parent: r.TS.ID, Depth: r.TS.Depth + 1}
	}
	// Completion must fire after the partial delivery, so the check is
	// made under the lock but both callbacks run after unlocking.
	var fire func()
	if op.completionSatisfied() {
		fire = p.finishOpLocked(r.QID, op, true)
	}
	p.mu.Unlock()
	if len(partial) > 0 {
		onPartial(spath, partial)
	}
	if len(aggStates) > 0 && onAgg != nil {
		onAgg(aggStates)
	}
	if fire != nil {
		fire()
	}
	if pull && fire == nil {
		// The op was still pending (a partial page withholds its
		// share) — but the partial delivery above may have fired an
		// early-out that canceled it, so re-check before pulling: an
		// early-terminated query must never request another page.
		p.mu.Lock()
		_, alive := p.pending[r.QID]
		p.mu.Unlock()
		if alive {
			target := r.From
			if !p.net.Alive(target) {
				// The server died between page and pull: the stateless
				// continuation lets any sibling replica of its
				// partition resume the cursor exactly — no duplicated
				// or dropped rows. The partition's stream claim moves
				// with the pull, or the sibling's pages would be
				// rejected as a duplicate stream.
				if sib, ok := p.siblingReplica(r.Path, target); ok {
					target = sib
					p.mu.Lock()
					if op, live := p.pending[r.QID]; live && op.scan != nil {
						if cl, ok := op.scan.claims[spath.String()]; ok && cl.from == r.From {
							cl.from = sib
							cl.last = p.net.Now()
						}
					}
					p.mu.Unlock()
				}
			}
			wb, wm := p.advertiseWindow()
			p.net.Send(p.id, target, KindPage, pageReq{
				QID: r.QID, Origin: p.id, Cont: *r.Cont,
				WinBytes: wb, WinMsgs: wm, TC: pullTC,
			})
			// Hedge the pull itself: if the server dies (or the pull or
			// its answer is swallowed) with the request already sent,
			// the stalled cursor re-sends to a live sibling after the
			// hedge deadline instead of waiting for the scan-level
			// re-shower backstop. Hedging keys on the STREAM's
			// partition — that is what the cursor memo is filed under.
			if cursor != nil {
				p.armPagePull(r.QID, spath, cursor, target)
			}
		}
	}
}

func (p *Peer) handleAck(a ackMsg, from simnet.NodeID, size int) {
	// Settle the entry's flow-control charge and fold the acking
	// peer's advertised window in; both may flush deferred sends.
	p.runFlow(p.flow.release(flowKey{qid: a.QID, seq: a.Seq}, from, a.WinBytes, a.WinMsgs))
	// The rider is absorbed before the duplicate-ack guard: a retried
	// insert's second ack is dropped for completion but its span (and
	// message cost) still belongs in the trace.
	p.absorbRider(a.QID, a.TS, size)
	p.mu.Lock()
	op, ok := p.pending[a.QID]
	if !ok || op.done {
		p.mu.Unlock()
		return
	}
	if op.insertPend != nil {
		if _, pending := op.insertPend[a.Seq]; !pending {
			// A duplicate ack: the original and a retried insert both
			// landed (idempotently). Counting it would complete the
			// operation while another entry is still unacked.
			p.mu.Unlock()
			return
		}
		delete(op.insertPend, a.Seq)
	}
	op.responses++
	if a.Hops > op.hops {
		op.hops = a.Hops
	}
	p.maybeCompleteLocked(a.QID, op)
}

// completionSatisfied is THE completion rule, shared by the response
// and ack paths: done once shares reach needShares and responses reach
// needResponses (whichever rules are armed). A range operation whose
// scan needed repair (scan.coverage — armed by the first retry round
// or by a mid-stream split) completes ONLY when the partitions that
// answered fully tile the queried range: retry showers carry no share
// mass, and a split server's final page releases its whole pre-split
// branch share — either way the share ledger stops being trustworthy
// the moment the scan needed repair. Callers hold the owning peer's
// mu.
func (o *pendingOp) completionSatisfied() bool {
	if o.scan != nil && o.scan.coverage {
		return len(uncoveredPrefixes(o.scan.r, o.scan.covered)) == 0
	}
	return !((o.needShares > 0 && o.shares < o.needShares) ||
		(o.needResponses > 0 && o.responses < o.needResponses))
}

// maybeCompleteLocked checks the completion rule and, when satisfied,
// finishes the op and fires its callback. It is entered with p.mu held
// and returns with it released.
func (p *Peer) maybeCompleteLocked(qid uint64, op *pendingOp) {
	if !op.completionSatisfied() {
		p.mu.Unlock()
		return
	}
	fire := p.finishOpLocked(qid, op, true)
	p.mu.Unlock()
	fire()
}

// --- Writes -------------------------------------------------------------

// MaxWriteEntries bounds one Write: an entry's sequence number within
// its operation is one byte on the wire.
const MaxWriteEntries = 1 << 8

// Write stores index entries — inserts, overwrites and tombstones alike
// — and reports completion (every entry acked by a responsible peer)
// through the returned handle; es holds 1..MaxWriteEntries entries. It
// is the overlay's one write path. Routing is replica-aware like the
// read path: it consults the cached owner set (dead primaries fail over
// to live siblings at send time), and entries whose ack is still
// missing when the hedge deadline passes are re-routed — safely,
// because the store resolves duplicate entries by version, so a
// retried write is idempotent. The responsible peer pushes what it
// applied on to its replica group.
func (p *Peer) Write(es []store.Entry, cb func(OpResult), opts ...OpOption) *Handle {
	if len(es) == 0 || len(es) > MaxWriteEntries {
		panic(fmt.Sprintf("pgrid: Write of %d entries (want 1..%d)", len(es), MaxWriteEntries))
	}
	op := &pendingOp{
		needResponses: len(es),
		insertPend:    make(map[uint8]store.Entry, len(es)),
	}
	for i, e := range es {
		op.insertPend[uint8(i)] = e
	}
	qid := p.newOp(op, trace.OpInsert, cb, resolveOpts(opts))
	for i, e := range es {
		p.sendInsert(qid, uint8(i), e, op.tc)
	}
	p.armInsertRetry(qid, 0)
	return &Handle{peer: p, op: op, qid: qid}
}

// InsertTripleAcked writes tr under all three index kinds (paper
// Fig. 2) at the given version.
func (p *Peer) InsertTripleAcked(tr triple.Triple, version uint64, cb func(OpResult), opts ...OpOption) *Handle {
	es := make([]store.Entry, 0, len(triple.AllIndexKinds))
	for _, kind := range triple.AllIndexKinds {
		es = append(es, store.Entry{Kind: kind, Key: triple.IndexKey(tr, kind),
			Triple: tr, Version: version})
	}
	return p.Write(es, cb, opts...)
}

// sendInsert issues one acked-insert entry, credit-gated against the
// partition's cached owner when one is known: the send charges that
// receiver's advertised window and, with the window full, parks FIFO
// until an ack or window update returns credit. With no cached owner
// the receiver is unknowable until routing resolves it, so the send
// goes uncontrolled — the ack still releases nothing (no charge), and
// the first response from the partition seeds the window for next
// time. The deferred closure re-routes at flush time, so credit
// returning after a split or failover still lands the entry on a live
// owner.
func (p *Peer) sendInsert(qid uint64, seq uint8, e store.Entry, tc trace.Ctx) {
	req := insertReq{Entry: e, QID: qid, Origin: p.id, Seq: seq, TC: tc}
	target, ok := p.cachedOwner(e.Key)
	if !ok || target.ID == p.id {
		p.route(e.Key, req)
		return
	}
	p.stats.flowBulkSends.Add(1)
	if !p.flow.submit(target.ID, flowKey{qid: qid, seq: seq}, req.WireSize(),
		func() { p.route(e.Key, req) }) {
		p.stats.flowStalls.Add(1)
		p.noteTraceStall(qid)
	}
}

// --- Lookups and range queries -------------------------------------------

// The overlay's read surface is two asynchronous calls, one per access
// shape: Lookup for exact keys, RangeQuery for key ranges. Options pick
// the delivery — WithAgg (peer-side aggregation), WithPages (streamed
// pages), WithDesc (descending scans) — and WithTrace the tracing.

// Lookup asynchronously fetches the entries stored at exactly the keys
// ks of one index. Keys this peer covers itself are answered in one
// local batch. Keys whose cached responsible PARTITION coincides travel
// as one multiLookupReq to a replica of that partition chosen by load
// (power of two choices over the cached owner set), with hedged
// failover to its siblings. Keys with no cache entry take the routed
// path one by one. Answers are tracked per key, so the operation
// completes exactly when every distinct key has been answered, however
// responses, hedged duplicates and failover retries interleave. One
// distinct key traces as a "lookup", several as a "multilookup".
func (p *Peer) Lookup(kind triple.IndexKind, ks []keys.Key, cb func(OpResult), opts ...OpOption) *Handle {
	distinct := make([]keys.Key, 0, len(ks))
	want := make(map[string]bool, len(ks))
	for _, k := range ks {
		s := k.String()
		if !want[s] {
			want[s] = true
			distinct = append(distinct, k)
		}
	}
	opKind := trace.OpMultiLookup
	if len(distinct) == 1 {
		opKind = trace.OpLookup
	}
	op := &pendingOp{needResponses: len(distinct), probeWant: want}
	qid := p.newOp(op, opKind, cb, resolveOpts(opts))
	p.dispatchProbes(qid, op, uint8(kind), distinct)
	return &Handle{peer: p, op: op, qid: qid}
}

// RangeQuery asynchronously collects all entries of `kind` with keys in
// r, using the shower algorithm; the empty range reaches every peer
// (the naive full-scan access path).
func (p *Peer) RangeQuery(kind triple.IndexKind, r keys.Range, cb func(OpResult), opts ...OpOption) *Handle {
	st := resolveOpts(opts)
	op := &pendingOp{needShares: TotalShare, scan: &scanState{kind: uint8(kind), r: r, desc: st.desc}}
	qid := p.newOp(op, trace.OpRange, cb, st)
	wb, wm := p.advertiseWindow()
	msg := rangeMsg{QID: qid, Origin: p.id, Kind: uint8(kind), R: r,
		Level: 0, Share: TotalShare, PageSize: p.cfg.PageSize, Desc: st.desc, Agg: st.agg,
		WinBytes: wb, WinMsgs: wm, TC: op.tc}
	p.armScanRetry(qid)
	// The origin participates in the shower like any other peer.
	p.handleRange(msg, 0)
	return &Handle{peer: p, op: op, qid: qid}
}

// --- Application payload routing -----------------------------------------

// SendApp routes an application payload (a mutant query plan) to the
// peer responsible for target.
func (p *Peer) SendApp(target keys.Key, payload any) {
	p.route(target, appMsg{Payload: payload})
}

// SendAppDirect sends an application payload straight to a known peer.
func (p *Peer) SendAppDirect(to simnet.NodeID, payload any) {
	p.net.Send(p.id, to, KindApp, appMsg{Payload: payload})
}
