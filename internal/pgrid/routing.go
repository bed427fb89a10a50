package pgrid

import (
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// handleRoute implements P-Grid prefix routing: each hop forwards the
// envelope to a reference whose path agrees with the target on at least
// one more bit, so an envelope reaches the responsible peer in at most
// len(path) hops — O(log n) for a balanced trie.
func (p *Peer) handleRoute(env routeEnvelope, from simnet.NodeID, size int) {
	if p.Responsible(env.Target) {
		p.deliver(env, from, size)
		return
	}
	p.forward(env)
}

// maxRouteHops bounds an envelope's life. Stale references (paths
// recorded before a split or merge) can route sideways; the TTL turns a
// potential loop into a counted routing failure.
const maxRouteHops = 64

// forward sends the envelope one hop closer to its target. The hop
// first consults its OWN routing cache: a cached owner whose recorded
// path resolves strictly more target bits than this peer's own path
// takes the envelope the rest of the way in one leg (the
// strict-progress guard is what keeps two mutually stale caches from
// bouncing an envelope back and forth; the hop TTL bounds what churn
// can still construct). Otherwise it picks a live reference at the
// divergence level, trying alternates for fault tolerance; with none
// live, the envelope is dropped and counted.
func (p *Peer) forward(env routeEnvelope) {
	if env.Hops >= maxRouteHops {
		p.stats.routeFailures.Add(1)
		return
	}
	if ref, ok := p.cachedOwner(env.Target); ok && ref.ID != p.id {
		p.mu.RLock()
		progress := ref.Path.CommonPrefixLen(env.Target) > p.path.CommonPrefixLen(env.Target)
		p.mu.RUnlock()
		if progress {
			env.Hops++
			p.stats.forwarded.Add(1)
			p.stats.cacheFwdHits.Add(1)
			p.net.Send(p.id, ref.ID, KindRoute, env)
			return
		}
	}
	p.mu.RLock()
	level := env.Target.CommonPrefixLen(p.path)
	// level < len(path): our bit at `level` differs from the target's,
	// so refs[level] covers the target's side of the trie.
	if level >= len(p.refs) {
		// Target extends our whole path — we are responsible (handled
		// by caller) or the trie is inconsistent; drop.
		p.mu.RUnlock()
		p.stats.routeFailures.Add(1)
		return
	}
	ref, ok := p.pickRefLocked(level)
	p.mu.RUnlock()
	env.Hops++
	if ok {
		p.stats.forwarded.Add(1)
		p.net.Send(p.id, ref.ID, KindRoute, env)
		return
	}
	p.stats.routeFailures.Add(1)
}

// pickRef chooses a live reference at the given level: the first live
// entry in table order. Load spreads across the cluster because every
// peer samples its OWN random references at wiring time; keeping the
// per-call choice deterministic makes routing — and therefore a traced
// query's span tree — a pure function of the overlay, identical on
// simnet and real transports for the same seeded layout.
func (p *Peer) pickRef(level int) (Ref, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pickRefLocked(level)
}

// pickRefLocked is pickRef with p.mu already held (read or write).
// Among the live references it prefers the shortest path (a peer
// higher in the sibling subtree resolves more of any target in one
// leg), breaking ties by path order then table order.
func (p *Peer) pickRefLocked(level int) (Ref, bool) {
	if level < 0 || level >= len(p.refs) {
		return Ref{}, false
	}
	var best Ref
	found := false
	for _, ref := range p.refs[level] {
		if !p.net.Alive(ref.ID) {
			continue
		}
		if !found || ref.Path.Len() < best.Path.Len() ||
			(ref.Path.Len() == best.Path.Len() && ref.Path.Compare(best.Path) < 0) {
			best, found = ref, true
		}
	}
	return best, found
}

// route starts an envelope toward target from this peer, delivering
// locally when this peer is already responsible. A routing-cache hit
// sends the envelope to the learned partition owner in one hop; if the
// cached owner turns out stale (its partition split or moved), it
// simply forwards the envelope onward — the fast path can add a leg,
// never lose a message — and the eventual response repairs the cache.
func (p *Peer) route(target keys.Key, inner any) {
	p.routeSpent(target, inner, 0)
}

// routeSpent is route for a payload whose journey already cost `spent`
// legs the sender accounted (a mis-addressed probe being re-routed):
// the spent legs ride along so end-to-end hop reporting stays truthful.
func (p *Peer) routeSpent(target keys.Key, inner any, spent int) {
	env := routeEnvelope{Target: target, Spent: spent, Inner: inner}
	if p.Responsible(target) {
		p.deliver(env, p.id, 0)
		return
	}
	// Hit/miss counters track probe traffic only: they feed the cost
	// model's CacheHitRate, which prices lookups — a bulk load's writes
	// (whose acks carry no routing news) would otherwise dilute the rate
	// toward zero forever.
	_, probe := inner.(lookupReq)
	if ref, ok := p.cachedOwner(target); ok {
		if probe {
			p.stats.cacheHits.Add(1)
		}
		env.Hops = 1
		p.net.Send(p.id, ref.ID, KindRoute, env)
		return
	}
	if probe {
		p.stats.cacheMisses.Add(1)
	}
	p.forward(env)
}

// addRef installs a reference at the given level, growing the table as
// needed, deduplicating, and respecting the per-level bound.
func (p *Peer) addRef(level int, r Ref) {
	if r.ID == p.id {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.refs) <= level {
		p.refs = append(p.refs, nil)
	}
	for i, old := range p.refs[level] {
		if old.ID == r.ID {
			p.refs[level][i] = r // refresh the recorded path
			return
		}
	}
	if len(p.refs[level]) >= p.cfg.RefsPerLevel {
		// Replace a random entry so long-lived peers still rotate in
		// fresh references.
		p.refs[level][p.net.Intn(len(p.refs[level]))] = r
		return
	}
	p.refs[level] = append(p.refs[level], r)
}

// addReplica records a same-path replica.
func (p *Peer) addReplica(r Ref) {
	if r.ID == p.id {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, old := range p.replicas {
		if old.ID == r.ID {
			p.replicas[i] = r
			return
		}
	}
	if len(p.replicas) >= p.cfg.MaxReplicas {
		p.replicas[p.net.Intn(len(p.replicas))] = r
		return
	}
	p.replicas = append(p.replicas, r)
}

// setPath rewrites the peer's path, truncating or growing the routing
// table to match. The routing cache is cleared wholesale: a local path
// change (bootstrap split, merge, late join) means the trie this peer
// learned its partition map against no longer exists.
func (p *Peer) setPath(path keys.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.path = path
	for len(p.refs) > path.Len() {
		p.refs = p.refs[:len(p.refs)-1]
	}
	for len(p.refs) < path.Len() {
		p.refs = append(p.refs, nil)
	}
	if n := p.cache.clearLocked(); n > 0 {
		p.stats.cacheInvalidations.Add(int64(n))
	}
}

// handleRange implements the shower algorithm: at each level of the
// trie not yet resolved, forward the query into the sibling subtree if
// it overlaps the range, then serve the local overlap. Every peer whose
// partition overlaps the range receives the query exactly once, after
// at most depth hops. size is the delivering message's wire size (0
// when the origin enters its own shower locally).
func (p *Peer) handleRange(msg rangeMsg, size int) {
	// The shower's advertised origin window is a credit sighting too.
	p.runFlow(p.flow.window(msg.Origin, msg.WinBytes, msg.WinMsgs))
	// One range span per shower participant: it owns the message that
	// delivered this branch (none for the origin's local entry) and the
	// branch's first response; forwarded branches parent under it, so
	// the assembled trace mirrors the trie fan-out.
	msgsIn := 0
	if size > 0 {
		msgsIn = 1
	}
	ws := p.beginSpan(msg.TC, trace.OpRange, msgsIn, size)
	// Collect the levels whose sibling subtrees overlap the range.
	type branch struct {
		level   int
		ref     Ref
		sibling keys.Key
	}
	var branches []branch
	failures := 0
	p.mu.RLock()
	for l := msg.Level; l < len(p.refs); l++ {
		sibling := p.path.Prefix(l).Append(1 - p.path.Bit(l))
		if !msg.R.OverlapsPrefix(sibling) {
			continue
		}
		if ref, ok := p.pickRefLocked(l); ok {
			branches = append(branches, branch{level: l, ref: ref, sibling: sibling})
		} else {
			failures++
		}
	}
	p.mu.RUnlock()
	if failures > 0 {
		p.stats.routeFailures.Add(int64(failures))
	}
	// Split the share mass: local serving keeps one part, each branch
	// takes one part; the remainder sticks to the local part so the
	// total is conserved exactly.
	parts := int64(len(branches)) + 1
	each := msg.Share / parts
	local := msg.Share - each*int64(len(branches))
	for _, b := range branches {
		fwd := msg
		fwd.Level = b.level + 1
		fwd.Share = each
		fwd.Hops = msg.Hops + 1
		// Clip each branch to its sibling subtree's region: under live
		// splits and merges a recipient whose path changed in flight
		// re-branches from its NEW position, and the clip keeps that
		// re-branching inside the region this branch is accountable
		// for — no region is ever served under two branches' shares.
		fwd.R = clipRangeToPrefix(msg.R, b.sibling)
		if ws != nil {
			fwd.TC = msg.TC.Child(ws.ID)
		}
		p.net.Send(p.id, b.ref.ID, KindRange, fwd)
	}
	p.serveRange(msg, local, ws)
}

// serveRange answers the part of the range this peer stores. With a
// page size set, the answer is the first page plus a continuation
// token. Desc serves the overlap top-down so descending ranked scans
// stream.
func (p *Peer) serveRange(msg rangeMsg, share int64, ws *trace.WireSpan) {
	p.stats.rangeServed.Add(1)
	// Serve only the intersection of the queried range with this peer's
	// own partition, and bake the partition into paged continuations as
	// the stream's identity. Under live splits and merges the store can
	// transiently hold a neighbouring partition's entries (merge
	// handoff) or lose half its region (split); the clip pins every
	// answer to the partition it was served under, which is what keeps
	// the origin's claim and coverage bookkeeping exact.
	path := p.Path()
	r := msg.R
	if path.Len() > 0 {
		r = clipRangeToPrefix(r, path)
	}
	if msg.Agg != nil {
		// Pushed-down aggregation: answer with per-group states (paged
		// by groups when a page size is set) instead of rows.
		p.serveAggPage(msg.QID, msg.Origin, pageCont{
			Kind: msg.Kind, R: r, Share: share,
			PageSize: msg.PageSize, Hops: msg.Hops, Agg: msg.Agg,
			StreamPath: path,
		}, msg.WinBytes, ws)
		return
	}
	if msg.PageSize > 0 {
		p.servePage(msg.QID, msg.Origin, pageCont{
			Kind: msg.Kind, R: r, Share: share,
			PageSize: msg.PageSize, Hops: msg.Hops, Desc: msg.Desc,
			StreamPath: path,
		}, msg.WinBytes, ws)
		return
	}
	resp := queryResp{QID: msg.QID, Share: share, Hops: msg.Hops, Final: true}
	p.stampResp(&resp)
	scan := p.store.Scan
	if msg.Desc {
		scan = p.store.ScanDesc
	}
	scan(triple.IndexKind(msg.Kind), r, func(e store.Entry) bool {
		resp.Entries = append(resp.Entries, e)
		return true
	})
	resp.Count = len(resp.Entries)
	resp.TS = p.finishSpan(ws, resp.Count)
	p.net.Send(p.id, msg.Origin, KindResponse, resp)
}

// servePage answers one page of this peer's overlap with a range: at
// most cont.PageSize entries starting at the key cursor (R.Lo, with
// the first cont.SkipAtLo entries of that exact key's bucket already
// sent). A partial page carries Share 0 and a continuation token whose
// cursor is the last key sent; the final page releases the branch
// share, completing the origin's accounting. The server keeps no
// per-scan state — the token is echoed back verbatim in the next
// pageReq — and the key-aligned cursor means entries applied or
// removed between pulls outside the cursor's bucket never duplicate or
// drop rows of the scan.
//
// winBytes is the origin's advertised byte window (refreshed on every
// pull): the page closes early once its entry payload would exceed it,
// so PageSize is a CAP and the receiver's window sets the effective
// page. A window smaller than one entry still ships one — progress
// over precision, the receiver asked for data after all.
func (p *Peer) servePage(qid uint64, origin simnet.NodeID, cont pageCont, winBytes int, ws *trace.WireSpan) {
	// Reconcile the stream with the server's current partition first: a
	// split deepens and clips it, a merge keeps it, an unrelated move
	// drops the pull (the origin's hedge finds a live replica).
	if !p.adjustStream(&cont) {
		return
	}
	if cont.Agg != nil {
		p.serveAggPage(qid, origin, cont, winBytes, ws)
		return
	}
	if cont.Desc {
		p.servePageDesc(qid, origin, cont, winBytes, ws)
		return
	}
	p.stats.pagesServed.Add(1)
	resp := queryResp{QID: qid, Hops: cont.Hops}
	p.stampResp(&resp)
	resp.ScanPath = cont.StreamPath
	skipLeft := cont.SkipAtLo
	pageBytes := 0
	var last keys.Key
	lastCount := 0 // entries sent at key `last` this page
	more := false
	p.store.Scan(triple.IndexKind(cont.Kind), cont.R, func(e store.Entry) bool {
		if skipLeft > 0 && e.Key.Equal(cont.R.Lo) {
			skipLeft--
			return true
		}
		if len(resp.Entries) >= cont.PageSize ||
			(winBytes > 0 && len(resp.Entries) > 0 && pageBytes+e.WireSize() > winBytes) {
			more = true
			return false
		}
		pageBytes += e.WireSize()
		if last.Equal(e.Key) {
			lastCount++
		} else {
			last = e.Key
			lastCount = 1
		}
		resp.Entries = append(resp.Entries, e)
		resp.Count++
		return true
	})
	if more {
		next := cont
		next.R.Lo = last
		next.SkipAtLo = lastCount
		if last.Equal(cont.R.Lo) {
			// The page never left the resumed bucket: carry the prior
			// skip forward.
			next.SkipAtLo += cont.SkipAtLo
		}
		resp.Cont = &next
	} else {
		resp.Share = cont.Share
		resp.Final = true
	}
	resp.TS = p.finishSpan(ws, resp.Count)
	p.net.Send(p.id, origin, KindResponse, resp)
}

// servePageDesc is servePage walking the overlap top-down: at most
// PageSize entries ending at the key cursor carried in cont.Cursor
// (with the first SkipAtLo entries of that bucket already sent). The
// continuation tightens R.Hi to just above the cursor so the next page
// resumes without rescanning, and — like the ascending form — the
// token stays stateless and key-aligned, so any replica of the
// partition can serve the next page without duplicating or dropping
// rows. winBytes caps the page payload exactly as in servePage.
func (p *Peer) servePageDesc(qid uint64, origin simnet.NodeID, cont pageCont, winBytes int, ws *trace.WireSpan) {
	p.stats.pagesServed.Add(1)
	resp := queryResp{QID: qid, Hops: cont.Hops}
	p.stampResp(&resp)
	resp.ScanPath = cont.StreamPath
	skipLeft := cont.SkipAtLo
	cursor := cont.Cursor
	pageBytes := 0
	var last keys.Key
	lastCount := 0
	more := false
	p.store.ScanDesc(triple.IndexKind(cont.Kind), cont.R, func(e store.Entry) bool {
		if cursor.Len() > 0 {
			if e.Key.Compare(cursor) > 0 {
				// Applied above the cursor between pulls: already past.
				return true
			}
			if skipLeft > 0 && e.Key.Equal(cursor) {
				skipLeft--
				return true
			}
		}
		if len(resp.Entries) >= cont.PageSize ||
			(winBytes > 0 && len(resp.Entries) > 0 && pageBytes+e.WireSize() > winBytes) {
			more = true
			return false
		}
		pageBytes += e.WireSize()
		if last.Equal(e.Key) {
			lastCount++
		} else {
			last = e.Key
			lastCount = 1
		}
		resp.Entries = append(resp.Entries, e)
		resp.Count++
		return true
	})
	if more {
		next := cont
		next.Cursor = last
		next.SkipAtLo = lastCount
		if cursor.Len() > 0 && last.Equal(cursor) {
			next.SkipAtLo += cont.SkipAtLo
		}
		if hi, ok := last.Successor(); ok {
			next.R.Hi = hi
			next.R.HiOpen = true
		}
		resp.Cont = &next
	} else {
		resp.Share = cont.Share
		resp.Final = true
	}
	resp.TS = p.finishSpan(ws, resp.Count)
	p.net.Send(p.id, origin, KindResponse, resp)
}

// handlePage serves a continuation pulled by a paged scan's origin,
// honoring the pull's freshly advertised receive window (which also
// counts as a credit sighting for bulk sends toward the origin).
func (p *Peer) handlePage(req pageReq, size int) {
	p.runFlow(p.flow.window(req.Origin, req.WinBytes, req.WinMsgs))
	ws := p.beginSpan(req.TC, trace.OpPage, 1, size)
	p.servePage(req.QID, req.Origin, req.Cont, req.WinBytes, ws)
}

// handleMultiLookup answers a batch of exact-key probes in one
// response covering the keys this peer is responsible for; keys a stale
// sender cache mis-attributed are re-routed as ordinary lookups toward
// their real owners.
func (p *Peer) handleMultiLookup(req multiLookupReq, size int) {
	ws := p.beginSpan(req.TC, trace.OpMultiLookup, 1, size)
	childTC := req.TC
	if ws != nil {
		childTC = req.TC.Child(ws.ID)
	}
	var owned []keys.Key
	for _, k := range req.Keys {
		if !p.Responsible(k) {
			// The probe leg that landed here is already spent; the
			// re-route continues the journey's hop count from 1.
			p.routeSpent(k, lookupReq{QID: req.QID, Origin: req.Origin, Kind: req.Kind, Key: k, Agg: req.Agg, TC: childTC}, 1)
			continue
		}
		p.stats.delivered.Add(1)
		owned = append(owned, k)
	}
	if len(owned) == 0 && ws == nil {
		return
	}
	// A traced batch that covered none of its keys still answers: the
	// span must reach home or the re-routed lookups' spans would orphan.
	p.serveKeys(req.QID, req.Origin, req.Kind, owned, req.Agg, 1, ws)
}
