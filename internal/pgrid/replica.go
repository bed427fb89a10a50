package pgrid

import (
	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// This file implements the replica-aware read path: every remote read
// targets a replica SET instead of a single owner. Probes pick a
// replica by load-aware power-of-two-choices over the cached owner set
// (simnet's per-node backlog is the load signal, the per-owner latency
// EWMA the tie-break), are hedged to a sibling replica when
// DefaultHedgeAfter passes unanswered, and fall back to fully
// routed lookups once the replica set is exhausted. Range scans track
// which partitions have fully answered and re-shower only the missing
// key-space gaps, so a query whose serving peer died mid-scan still
// returns exact results. All of it is an accelerator layered over
// P-Grid's best-effort routing: the routed path remains the authority
// a read can always fall back to.

// --- Probe dispatch ----------------------------------------------------------

// dispatchProbes routes the probe keys of one key-tracked operation:
// locally-owned keys answer in one loopback batch, keys with a cached
// owner set travel direct to a load-chosen replica (grouped per
// partition, hedging armed), and the rest take the routed path.
func (p *Peer) dispatchProbes(qid uint64, op *pendingOp, kind uint8, ks []keys.Key) {
	var local []keys.Key
	type group struct {
		path keys.Key
		ks   []keys.Key
	}
	var groups []*group // first-seen order: deterministic sends
	idx := make(map[string]*group)
	var routed []keys.Key
	p.mu.RLock()
	tc := op.tc
	for _, k := range ks {
		if k.HasPrefix(p.path) {
			local = append(local, k)
			continue
		}
		set, ok := p.cache.setLocked(k)
		if ok {
			p.stats.cacheHits.Add(1)
			ps := set.path.String()
			g := idx[ps]
			if g == nil {
				g = &group{path: set.path}
				idx[ps] = g
				groups = append(groups, g)
			}
			g.ks = append(g.ks, k)
			continue
		}
		p.stats.cacheMisses.Add(1)
		routed = append(routed, k)
	}
	p.mu.RUnlock()
	if len(local) > 0 {
		// The request leg is a function call (zero messages); the
		// response is a real self-send, so completion callbacks never
		// fire inside the issuing call, and the span's outbound side is
		// charged when the origin absorbs its rider.
		p.stats.delivered.Add(int64(len(local)))
		ws := p.beginSpan(tc, trace.OpMultiLookup, 0, 0)
		p.serveKeys(qid, p.id, kind, local, op.aggSpec, 0, ws, tc.TraceID)
	}
	for _, g := range groups {
		p.sendProbeGroup(qid, op, kind, g.ks, g.path, nil, 0, tc)
	}
	for _, k := range routed {
		p.routeProbe(qid, kind, k, op.aggSpec, tc)
	}
}

// serveKeys answers exact-key probes this peer owns with one queryResp:
// the entries stored at each key (or, with spec set, their aggregated
// group states), and ProbeKeys echoing the keys answered so the
// origin's per-key completion stays exact however hedges and re-routes
// interleave. Every exact-key path ends here — the origin's local
// batch, a direct multiLookupReq and a routed lookupReq — each passing
// the span it opened and the hops its request travelled. An empty ks
// is the trace-only answer of a traced batch whose keys all re-routed:
// no ProbeKeys, hence no completion signal.
func (p *Peer) serveKeys(qid uint64, origin simnet.NodeID, kind uint8, ks []keys.Key, spec *agg.Spec, hops int, ws *trace.WireSpan, traceID uint64) {
	resp := queryResp{QID: qid, Hops: hops, ProbeKeys: ks}
	p.stampResp(&resp)
	var entries []store.Entry
	for _, k := range ks {
		entries = append(entries, p.store.Lookup(triple.IndexKind(kind), k)...)
	}
	if spec != nil && len(ks) > 0 {
		aggProbeResp(&resp, spec, entries)
	} else {
		resp.Entries = entries
		resp.Count = len(entries)
	}
	resp.TS = p.finishSpan(ws, traceID, resp.Count)
	p.net.Send(p.id, origin, KindResponse, resp)
}

// routeProbe sends one probe down the ordinary prefix-routed path (the
// cache statistics for it were already taken by the caller). A non-nil
// spec pushes the aggregation along with it.
func (p *Peer) routeProbe(qid uint64, kind uint8, k keys.Key, spec *agg.Spec, tc trace.Ctx) {
	p.forward(routeEnvelope{Target: k, Inner: lookupReq{
		QID: qid, Origin: p.id, Kind: kind, Key: k, Agg: spec, TC: tc,
	}})
}

// sendProbeGroup sends one partition's probe keys direct to a chosen
// replica of its cached owner set, registering the group for the hedge
// timer. With no live untried replica left it invalidates the set and
// falls back to routed lookups (reporting false).
func (p *Peer) sendProbeGroup(qid uint64, op *pendingOp, kind uint8, ks []keys.Key, path keys.Key, tried map[simnet.NodeID]bool, attempt int, tc trace.Ctx) bool {
	p.mu.Lock()
	set, ok := p.cache.entries[path.String()]
	var target Ref
	if ok {
		target, ok = p.pickReplicaLocked(set, tried)
	}
	if !ok {
		if tried == nil {
			// Every known owner is dead (first attempts only: a retry
			// exhausting its alternates just means they were all tried).
			if p.cache.dropLocked(path) {
				p.stats.cacheInvalidations.Add(1)
			}
		}
		spec := op.aggSpec
		p.mu.Unlock()
		for _, k := range ks {
			p.routeProbe(qid, kind, k, spec, tc)
		}
		return false
	}
	if op.done {
		p.mu.Unlock()
		return true
	}
	op.groupSeq++
	gid := op.groupSeq
	if op.groups == nil {
		op.groups = make(map[uint64]*probeGroup)
	}
	if tried == nil {
		tried = make(map[simnet.NodeID]bool)
	}
	tried[target.ID] = true
	op.groups[gid] = &probeGroup{
		kind: kind, keys: ks, target: target.ID, path: path,
		sentAt: p.net.Now(), attempt: attempt, tried: tried,
	}
	spec := op.aggSpec
	p.mu.Unlock()
	p.stats.probeGroups.Add(1)
	p.net.Send(p.id, target.ID, KindMultiLookup, multiLookupReq{
		QID: qid, Origin: p.id, Kind: kind, Keys: ks, Agg: spec, TC: tc,
	})
	p.net.After(DefaultHedgeAfter, func() { p.hedgeProbeGroup(qid, gid) })
	return true
}

// pickReplicaLocked chooses a live replica from an owner set by
// power-of-two-choices: sample two candidates, keep the one with the
// smaller network backlog PLUS flow-control pressure (deferred bulk
// sends stalled on the candidate's credit window — the backpressure
// signal feeding back into replica selection), breaking ties by
// latency EWMA. Callers hold p.mu; the flow table's own innermost lock
// makes the penalty reads safe here.
func (p *Peer) pickReplicaLocked(set *ownerSet, tried map[simnet.NodeID]bool) (Ref, bool) {
	cands := set.live(p.net, tried)
	switch len(cands) {
	case 0:
		return Ref{}, false
	case 1:
		return set.owners[cands[0]].Ref, true
	}
	i := cands[p.net.Intn(len(cands))]
	j := cands[p.net.Intn(len(cands))]
	for j == i {
		j = cands[p.net.Intn(len(cands))]
	}
	li := p.net.Load(set.owners[i].ID) + p.flow.penalty(set.owners[i].ID)
	lj := p.net.Load(set.owners[j].ID) + p.flow.penalty(set.owners[j].ID)
	if lj < li || (lj == li && set.owners[j].ewma < set.owners[i].ewma) {
		i = j
	}
	return set.owners[i].Ref, true
}

// hedgeProbeGroup fires when a probe group's deadline passes: keys
// still unanswered are re-sent to the next replica (penalizing the
// silent one's health EWMA), and once the attempt budget is spent they
// fall back to fully routed lookups. Answered groups dissolve quietly.
func (p *Peer) hedgeProbeGroup(qid, gid uint64) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done {
		p.mu.Unlock()
		return
	}
	g, ok := op.groups[gid]
	if !ok {
		p.mu.Unlock()
		return
	}
	delete(op.groups, gid)
	var unanswered []keys.Key
	for _, k := range g.keys {
		if op.probeWant[k.String()] {
			unanswered = append(unanswered, k)
		}
	}
	if len(unanswered) == 0 {
		p.mu.Unlock()
		return
	}
	if set, ok := p.cache.entries[g.path.String()]; ok {
		set.penalize(g.target, DefaultHedgeAfter)
	}
	kind, attempt, tried, path := g.kind, g.attempt+1, g.tried, g.path
	spec := op.aggSpec
	tc := op.tc
	tc.Flags |= trace.FlagHedge
	p.mu.Unlock()
	p.stats.probeRetries.Add(1)
	if attempt < maxProbeAttempts && p.sendProbeGroup(qid, op, kind, unanswered, path, tried, attempt, tc) {
		return
	}
	if attempt >= maxProbeAttempts {
		for _, k := range unanswered {
			p.routeProbe(qid, kind, k, spec, tc)
		}
	}
}

// settleGroupsLocked dissolves probe groups whose keys have all been
// answered, folding the winner's round trip into its cached latency
// EWMA. Callers hold p.mu.
func (p *Peer) settleGroupsLocked(op *pendingOp, from simnet.NodeID) {
	if len(op.groups) == 0 {
		return
	}
	now := p.net.Now()
	for gid, g := range op.groups {
		satisfied := true
		for _, k := range g.keys {
			if op.probeWant[k.String()] {
				satisfied = false
				break
			}
		}
		if satisfied {
			if g.target == from {
				p.observeOwnerLocked(g.path, from, now-g.sentAt)
			}
			delete(op.groups, gid)
		}
	}
}

// siblingReplica picks a live replica of the partition at `path` other
// than `dead` — the page-pull redirect target when a paged scan's
// server dies between pages.
func (p *Peer) siblingReplica(path keys.Key, dead simnet.NodeID) (simnet.NodeID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.siblingReplicaLocked(path, dead)
}

// siblingReplicaLocked is siblingReplica with p.mu already held.
func (p *Peer) siblingReplicaLocked(path keys.Key, dead simnet.NodeID) (simnet.NodeID, bool) {
	if path.Len() == 0 {
		return 0, false
	}
	set, ok := p.cache.entries[path.String()]
	if !ok {
		return 0, false
	}
	ref, ok := p.pickReplicaLocked(set, map[simnet.NodeID]bool{dead: true})
	if !ok {
		return 0, false
	}
	return ref.ID, true
}

// --- Page-pull hedging -------------------------------------------------------

// armPagePull schedules the pull-level hedge of one in-flight page
// request: if the partition's cursor is still cu when the hedge
// deadline fires, the pull (or its answer) was swallowed — most likely
// the server died with the request already sent — and the pull
// re-sends to a live sibling replica.
func (p *Peer) armPagePull(qid uint64, path keys.Key, cu *scanCursor, server simnet.NodeID) {
	p.net.After(DefaultHedgeAfter, func() { p.hedgePagePull(qid, path, cu, server) })
}

// hedgePagePull fires at the pull hedge deadline. A cursor that moved
// (every accepted page files a new one) or a finished partition means
// the stream is healthy and the timer dissolves; a stalled cursor
// re-sends the pull — direct to a sibling replica with the stream claim
// transferred (so the sibling's pages are accepted and a late original
// is dropped whole), or routed with the claim released when no sibling
// is cached. The per-cursor hedge budget keeps a persistently wedged
// position from looping; past it the scan-level re-shower backstop
// still applies.
func (p *Peer) hedgePagePull(qid uint64, path keys.Key, cu *scanCursor, server simnet.NodeID) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || op.scan == nil {
		p.mu.Unlock()
		return
	}
	sc := op.scan
	key := path.String()
	if sc.cursors[key] != cu || cu.hedges >= maxProbeAttempts {
		p.mu.Unlock()
		return
	}
	cu.hedges++
	cont := cu.cont
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	target, direct := p.siblingReplicaLocked(path, server)
	if cl, claimed := sc.claims[key]; claimed {
		if direct {
			cl.from = target
			cl.last = p.net.Now()
		} else {
			// Routed pull: whichever replica answers re-claims; the
			// claim dedup still drops whichever stream loses the race.
			delete(sc.claims, key)
		}
	}
	p.mu.Unlock()
	p.stats.pageHedges.Add(1)
	// The hedge abandons the stalled server: release any credit still
	// charged against it so its silence cannot strand unrelated bulk
	// sends (the zero-credit-deadlock rule).
	p.runFlow(p.flow.releaseNode(server))
	wb, wm := p.advertiseWindow()
	req := pageReq{QID: qid, Origin: p.id, Cont: cont, WinBytes: wb, WinMsgs: wm, TC: tc}
	if direct {
		p.net.Send(p.id, target, KindPage, req)
		p.armPagePull(qid, path, cu, target)
		return
	}
	p.route(path, req)
	p.armPagePull(qid, path, cu, server)
}

// --- Write-path failover -----------------------------------------------------

// armInsertRetry schedules the ack watchdog of an acked insert.
func (p *Peer) armInsertRetry(qid uint64, attempt int) {
	if attempt >= maxProbeAttempts {
		return
	}
	p.net.After(DefaultHedgeAfter, func() { p.retryInserts(qid, attempt) })
}

// retryInserts re-routes the entries of an acked insert whose acks are
// still missing at the hedge deadline — the envelope (or its ack) was
// swallowed, typically by the responsible primary dying with the
// message in flight. Routing re-consults the cached owner set and the
// liveness-checked reference tables, so the retry lands on a live
// replica of the partition; the store's version tie-break makes a
// duplicate delivery harmless.
func (p *Peer) retryInserts(qid uint64, attempt int) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || len(op.insertPend) == 0 {
		p.mu.Unlock()
		return
	}
	type pend struct {
		seq uint8
		e   store.Entry
	}
	var missing []pend
	for seq, e := range op.insertPend {
		missing = append(missing, pend{seq, e})
	}
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	p.mu.Unlock()
	p.stats.writeRetries.Add(int64(len(missing)))
	for _, m := range missing {
		// Refund the entry's flow-control charge first: the original
		// send (possibly still parked in a dead receiver's deferred
		// queue) is superseded by this retry, which goes UNGATED — the
		// failover path must never wait on credit a dead receiver can
		// no longer return.
		p.runFlow(p.flow.releaseKey(flowKey{qid: qid, seq: m.seq}))
		p.route(m.e.Key, insertReq{Entry: m.e, QID: qid, Origin: p.id, Seq: m.seq, TC: tc})
	}
	p.armInsertRetry(qid, attempt+1)
}

// --- Range-scan failover -----------------------------------------------------

// hasCovered reports whether a partition path already delivered its
// final answer for this scan.
func (s *scanState) hasCovered(path keys.Key) bool {
	for _, c := range s.covered {
		if c.Equal(path) {
			return true
		}
	}
	return false
}

// armScanRetry schedules the churn backstop of a range query: if the
// operation is still pending when the (much longer than any healthy
// shower) deadline passes, the partitions that never finished
// answering are re-showered through fresh — live — references.
func (p *Peer) armScanRetry(qid uint64) {
	p.net.After(DefaultHedgeAfter*scanRetryFactor, func() { p.retryScan(qid) })
}

// retryScan re-showers the key-space gaps a pending range query never
// got final answers for. Retry showers carry zero share mass — their
// mass could double-count against late original responses and complete
// the operation while a partition is still silent — so firing the
// first retry switches the operation to coverage-based completion:
// done when the partitions that answered tile the queried range.
// Duplicate rows from a late original racing a retry are dropped by
// the covered-partition check in handleResponse.
func (p *Peer) retryScan(qid uint64) {
	p.mu.Lock()
	op, ok := p.pending[qid]
	if !ok || op.done || op.scan == nil {
		p.mu.Unlock()
		return
	}
	sc := op.scan
	if sc.retries >= maxScanRetries {
		p.mu.Unlock()
		return
	}
	sc.coverage = true
	// Release the stream claims of dead or stalled owners (no progress
	// for a whole retry interval). A released stream that had already
	// delivered pages resumes at its stored cursor — a routed page
	// pull any replica of the partition can serve, so rows already
	// streamed are never replayed. Partitions that never responded
	// become gaps for the re-shower. Claims still making progress
	// count as covered for GAP computation only — their stream will
	// finish on its own, so re-showering them would just burn
	// messages — while completion keeps waiting for their final page.
	now := p.net.Now()
	interval := DefaultHedgeAfter * scanRetryFactor
	active := append([]keys.Key(nil), sc.covered...)
	for key, cl := range sc.claims {
		if !p.net.Alive(cl.from) || now-cl.last >= interval {
			// Released: the resumed stream's first response (or the
			// re-shower's) re-claims. The cursor memo survives, so the
			// partition resumes below instead of re-showering.
			delete(sc.claims, key)
			continue
		}
		active = append(active, cl.path)
	}
	// Partitions with page progress but no live stream resume at their
	// memoized cursor — a routed pull any replica can serve — and never
	// count as gaps, so their delivered rows are not replayed even if a
	// previous resume pull was itself lost.
	var resumes []*scanCursor
	for key, cu := range sc.cursors {
		if _, live := sc.claims[key]; live {
			continue
		}
		resumes = append(resumes, cu)
		active = append(active, cu.path)
	}
	gaps := uncoveredPrefixes(sc.r, active)
	kind, desc, aggSpec := sc.kind, sc.desc, op.aggSpec
	if len(gaps) == 0 && len(resumes) == 0 {
		// Covered while the timer was in flight: the completion rule
		// just changed, so check it here — no further response may.
		if op.completionSatisfied() {
			fire := p.finishOpLocked(qid, op, true)
			p.mu.Unlock()
			fire()
			return
		}
		// Streams still active: keep watching them.
		p.mu.Unlock()
		p.armScanRetry(qid)
		return
	}
	sc.retries++ // only rounds that re-send spend the retry budget
	r := sc.r
	tc := op.tc
	tc.Flags |= trace.FlagRetry
	p.mu.Unlock()
	p.stats.scanRetries.Add(1)
	wb, wm := p.advertiseWindow()
	for _, cu := range resumes {
		p.route(cu.path, pageReq{QID: qid, Origin: p.id, Cont: cu.cont, WinBytes: wb, WinMsgs: wm, TC: tc})
	}
	for _, g := range gaps {
		p.handleRange(rangeMsg{
			QID: qid, Origin: p.id, Kind: kind,
			R: clipRangeToPrefix(r, g), Level: 0, Share: 0,
			PageSize: p.cfg.PageSize, Desc: desc, Agg: aggSpec,
			TC: tc,
		}, 0)
	}
	p.armScanRetry(qid)
}

// resumedBy reports whether response r (with its decoded group states)
// continues the stream at this cursor rather than repeating what the
// stream already delivered; a nil cursor (no page accepted yet, or a
// finished partition) accepts anything. Every server page starts
// exactly at the cursor it was pulled with, so an aggregated page must
// start past AggAfter (group keys are unique and ordered). Row streams
// fork only when the cursor's own server answers two pulls (another
// server's repeat loses the stream claim), and only such a page is
// tested: it must not carry the cursor's last row — a page from an
// earlier cursor that runs past this one carries it — and a partial one
// must end past the cursor. A sibling's page is taken as it comes: it
// skips SkipAtLo rows in its own bucket order, which may differ from
// the cursor server's, so it can legitimately re-serve the last row.
func (cu *scanCursor) resumedBy(r queryResp, states []agg.State) bool {
	if cu == nil {
		return true
	}
	if cu.cont.Agg != nil {
		return len(states) == 0 || states[0].GroupKey() > cu.cont.AggAfter
	}
	if r.From != cu.from {
		return true
	}
	for _, e := range r.Entries {
		if e.Version == cu.last.Version && factKeyOf(e) == factKeyOf(cu.last) {
			return false
		}
	}
	return r.Cont == nil || cu.cont.before(*r.Cont)
}

// before reports whether row cursor c sits strictly before d in their
// stream's scan order: ascending streams cursor on R.Lo, descending ones
// on Cursor, and SkipAtLo counts the rows already sent at that key.
func (c pageCont) before(d pageCont) bool {
	if c.Desc {
		if x := c.Cursor.Compare(d.Cursor); x != 0 {
			return x > 0
		}
	} else if x := c.R.Lo.Compare(d.R.Lo); x != 0 {
		return x < 0
	}
	return c.SkipAtLo < d.SkipAtLo
}

// uncoveredPrefixes returns the minimal trie prefixes overlapping r
// that no covered partition path accounts for — the gaps a scan retry
// must re-shower. The recursion only descends while some covered path
// strictly extends the prefix, so it is bounded by the deepest
// answered partition.
func uncoveredPrefixes(r keys.Range, covered []keys.Key) []keys.Key {
	var out []keys.Key
	var rec func(prefix keys.Key)
	rec = func(prefix keys.Key) {
		if !r.OverlapsPrefix(prefix) {
			return
		}
		deeper := false
		for _, c := range covered {
			if prefix.HasPrefix(c) {
				return // wholly inside an answered partition
			}
			if c.HasPrefix(prefix) && c.Len() > prefix.Len() {
				deeper = true
			}
		}
		if !deeper {
			out = append(out, prefix)
			return
		}
		rec(prefix.Append(0))
		rec(prefix.Append(1))
	}
	rec(keys.Empty)
	return out
}

// clipRangeToPrefix intersects a query range with a trie prefix's key
// region, so a retry shower only revisits the missing gap.
func clipRangeToPrefix(r keys.Range, prefix keys.Key) keys.Range {
	out := keys.PrefixRange(prefix)
	if r.Lo.Compare(out.Lo) > 0 {
		out.Lo = r.Lo
	}
	if r.HiOpen && (!out.HiOpen || r.Hi.Compare(out.Hi) < 0) {
		out.Hi, out.HiOpen = r.Hi, true
	}
	return out
}
