package pgrid

import (
	"unistore/internal/trace"
)

// This file is the overlay's tracing glue (trace/span.go has the
// model). The invariant everything below maintains: every overlay
// message of a traced operation is charged to exactly one span field —
// a request's delivery cost (routing hops included) to the serving
// span's MsgsIn/BytesIn, its response or ack to the same span's
// MsgsOut/BytesOut (stamped by the origin from the received message) —
// so a quiet deterministic run's QueryTrace totals reconcile exactly
// with the transport's sent counters. Spans travel home as compact
// riders on responses the protocol sends anyway: tracing adds bytes,
// never messages.

// newSpanID allocates a span id unique across the overlay: the peer's
// address in the high bits, a local sequence below. Only uniqueness
// matters — structural trace comparison never looks at ids.
func (p *Peer) newSpanID() uint64 {
	return uint64(p.id+1)<<32 | (p.spanSeq.Add(1) & 0xffffffff)
}

// beginSpan opens the serving-side span of a traced request that
// arrived at the cost of msgsIn messages / bytesIn bytes (0/0 for a
// local serve). Nil when the request carries no trace context.
func (p *Peer) beginSpan(tc trace.Ctx, op uint8, msgsIn, bytesIn int) *trace.WireSpan {
	if !tc.Active() {
		return nil
	}
	now := int64(p.net.Now())
	return &trace.WireSpan{
		ID: p.newSpanID(), Parent: tc.Parent, Op: op,
		Flags: tc.Flags, Depth: tc.Depth, Peer: int64(p.id),
		Path:   p.Path().String(),
		MsgsIn: int32(msgsIn), BytesIn: int32(bytesIn),
		Enq: now, Srv: now,
	}
}

// finishSpan stamps the reply instant and row count and returns the
// span for piggybacking on the response.
func (p *Peer) finishSpan(ws *trace.WireSpan, rows int) *trace.WireSpan {
	if ws == nil {
		return nil
	}
	ws.Rows = int32(rows)
	ws.Rep = int64(p.net.Now())
	return ws
}

// beginOpTrace registers the origin-side root span of a traced
// operation in the per-qid accumulator and returns the child context
// its requests carry. The accumulator is independent of the pendingOp
// lifetime, so riders arriving after completion still reconcile; the
// issuer drains it with TakeTrace.
func (p *Peer) beginOpTrace(qid uint64, tc trace.Ctx, op uint8) trace.Ctx {
	if p.traces == nil || !tc.Active() {
		return trace.Ctx{}
	}
	id := p.newSpanID()
	now := int64(p.net.Now())
	root := trace.Span{
		ID: id, Parent: tc.Parent, TraceID: tc.TraceID,
		Kind: trace.OpName(op), Peer: int64(p.id), Path: p.Path().String(),
		Flags: tc.Flags, Depth: tc.Depth, Enq: now, Srv: now,
	}
	p.traceMu.Lock()
	p.traces[qid] = append(p.traces[qid], root)
	p.traceMu.Unlock()
	return tc.Child(id)
}

// absorbRider folds a piggybacked span rider into the accumulator of
// the operation it answers, charging it the response's own cost (one
// message of `size` bytes). Riders of unknown or untraced operations
// are dropped. This runs BEFORE any op-done check, so a late response
// still reconciles.
func (p *Peer) absorbRider(qid uint64, ws *trace.WireSpan, size int) {
	if ws == nil || p.traces == nil {
		return
	}
	p.traceMu.Lock()
	tr, ok := p.traces[qid]
	if ok {
		p.traces[qid] = append(tr, ws.Span(tr[0].TraceID, 1, size))
	}
	p.traceMu.Unlock()
}

// noteTraceStall charges one credit-window stall to the operation's
// root span (the stall happens at the origin, before any server span
// exists).
func (p *Peer) noteTraceStall(qid uint64) {
	if p.traces == nil {
		return
	}
	p.traceMu.Lock()
	if tr := p.traces[qid]; len(tr) > 0 {
		tr[0].Stalls++
	}
	p.traceMu.Unlock()
}

// TakeTrace drains and returns the spans accumulated for one traced
// operation this peer originated — root span first, riders in arrival
// order. The root's reply instant is stamped at drain time if still
// open. Callers that issued an operation WithTrace own its qid's
// accumulator entry and must drain it (or leave it for a later drain;
// entries are per-op and bounded by the ops the caller traces).
func (p *Peer) TakeTrace(qid uint64) []trace.Span {
	if p.traces == nil {
		return nil
	}
	p.traceMu.Lock()
	tr := p.traces[qid]
	delete(p.traces, qid)
	p.traceMu.Unlock()
	if len(tr) > 0 && tr[0].Rep == 0 {
		tr[0].Rep = int64(p.net.Now())
	}
	return tr
}

// peekTrace copies a traced operation's accumulated spans without
// draining (OpResult.Spans at completion; TakeTrace is the drain).
func (p *Peer) peekTrace(qid uint64) []trace.Span {
	if p.traces == nil {
		return nil
	}
	p.traceMu.Lock()
	defer p.traceMu.Unlock()
	tr := p.traces[qid]
	if tr == nil {
		return nil
	}
	return append([]trace.Span(nil), tr...)
}

// TracingEnabled reports whether this peer records spans and honors
// WithTrace contexts on the operations it originates.
func (p *Peer) TracingEnabled() bool { return p.cfg.Tracing }

// NewTraceID allocates an id unique across the overlay, usable as a
// trace id or as the id of a coordinator-synthesized span.
func (p *Peer) NewTraceID() uint64 { return p.newSpanID() }
