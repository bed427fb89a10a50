package physical

// Tracing glue for the executor. A traced query's tree has three
// layers: a synthetic "query" root span at the origin (or a "plan"
// span at each migration host), one synthetic "stage" span per plan
// step carrying the operator's rows in/out and time-to-first-row, and
// under each stage the real overlay spans its operations produced —
// drained from the peer's per-op accumulators, where the piggybacked
// riders land. Untraced queries have a zero tc and skip all of it.

import (
	"fmt"

	"unistore/internal/trace"
)

// recordTraceQID remembers a traced overlay operation's qid so span
// collection can drain its accumulator from the peer.
func (ex *Exec) recordTraceQID(qid uint64) {
	ex.mu.Lock()
	ex.tqids = append(ex.tqids, qid)
	ex.mu.Unlock()
}

// stageSpan synthesizes the pipeline-stage span. Srv is the instant
// the first row left the operator (time-to-first-row against Enq);
// Rep the downstream EOS. A stage whose probes escalated past probeCap
// says so in its label ("s1:oid-lookup>scan"). Callers hold pmu.
func (s *stage) stageSpan(started, now int64) trace.Span {
	ex := s.ex
	label := fmt.Sprintf("s%d:%s", s.idx, s.st.Strat)
	if s.capped {
		label += ">scan"
	}
	sp := trace.Span{
		ID: s.spanID, Parent: ex.rootSpan.ID, TraceID: ex.tc.TraceID,
		Kind: "stage", Stage: label,
		Peer: int64(ex.eng.peer.ID()), Path: ex.rootSpan.Path,
		Depth: ex.tc.Depth,
		Enq:   started, Srv: started, Rep: now,
		Rows: s.rowsOut, RowsIn: s.rowsIn,
	}
	if s.firstOut != 0 {
		sp.Srv = s.firstOut
	}
	if s.eosAt != 0 {
		sp.Rep = s.eosAt
	}
	return sp
}

// collectSpansLocked gathers every span this Exec produced so far: the
// root (query or plan) span, the synthetic stage spans, the overlay
// spans drained from the peer, and spans shipped home by hosted
// remainders. Draining is cumulative — spans already pulled stay in
// ex.drained, so a repeated collection only adds riders that arrived
// in between. Callers hold pmu.
func (ex *Exec) collectSpansLocked() []trace.Span {
	if !ex.tc.Active() {
		return nil
	}
	now := int64(ex.eng.peer.Net().Now())
	ex.mu.Lock()
	qids := ex.tqids
	ex.tqids = nil
	root := ex.rootSpan
	root.Rows = len(ex.result)
	root.Rep = now
	if ex.finished > 0 {
		root.Rep = int64(ex.finished)
	}
	started := int64(ex.started)
	remote := append([]trace.Span(nil), ex.remote...)
	ex.mu.Unlock()
	for _, qid := range qids {
		ex.drained = append(ex.drained, ex.eng.peer.TakeTrace(qid)...)
	}
	spans := []trace.Span{root}
	for _, s := range ex.stages {
		if s.spanID != 0 {
			spans = append(spans, s.stageSpan(started, now))
		}
	}
	spans = append(spans, ex.drained...)
	spans = append(spans, remote...)
	return spans
}

// Trace assembles the end-to-end trace of this query: the synthetic
// query root, one span per pipeline stage, and every overlay span the
// traced operations produced — including spans shipped home by
// migrated remainders. Nil when the peer does not trace. Safe to call
// repeatedly; a later call folds in riders that arrived since.
func (ex *Exec) Trace() *trace.QueryTrace {
	if !ex.tc.Active() {
		return nil
	}
	ex.pmu.Lock()
	spans := ex.collectSpansLocked()
	ex.pmu.Unlock()
	return trace.Assemble(ex.tc.TraceID, ex.rootSpan.ID, spans)
}
