package pgrid

import (
	"fmt"
	"sort"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// This file implements LIVE membership changes: peers joining a
// running trie, replica groups splitting one level deeper, and sibling
// partitions merging back — all while queries (paged scans included)
// are in flight. The exchange protocol (exchange.go) builds a trie
// from scratch in quiesced rounds; these operations reshape one that
// is actively serving.
//
// Exactness under a mid-stream reshape rests on three mechanisms:
//
//  1. Every paged stream is clipped server-side to the serving
//     partition at stream start and carries that partition as its
//     identity (pageCont.StreamPath), so a server that later widens in
//     a merge can never serve rows outside the region its stream
//     promised.
//  2. A server whose partition SPLITS mid-stream clips the live
//     continuation to the half it kept and deepens the stream
//     identity; the origin migrates its claim and classifies the
//     abandoned sibling region — already covered, resumable at the old
//     cursor, or a gap for the coverage re-shower (ops.go).
//  3. A merge moves data BEFORE paths widen (TransferStores, then
//     WidenGroup): at no instant does a query observe a partition that
//     owns a region it does not hold.

// --- Join -----------------------------------------------------------------

// Join asks target to adopt this peer into its replica group. The
// target answers with its trie position and membership; the joiner
// adopts them and opens one digest round with the target, so its state
// arrives the way every replica's does — as a pull paced by its own
// receive window (gossip.go). A fresh peer's digest is empty, so it
// pulls every bucket; a peer that recovered its store from disk pulls
// only what drifted while it was down, so a restart costs the writes it
// missed, not the partition size. Once the sync lands the joiner is a
// live replica, and SplitGroup can deepen the partition.
func (p *Peer) Join(target simnet.NodeID) {
	p.net.Send(p.id, target, KindJoin, joinReq{})
}

// handleJoinReq adopts a joining peer: reply with position and
// membership, and tell the existing replicas about the newcomer.
func (p *Peer) handleJoinReq(from simnet.NodeID) {
	p.mu.RLock()
	path := p.path
	refs := make([][]Ref, len(p.refs))
	for i, ls := range p.refs {
		refs[i] = append([]Ref(nil), ls...)
	}
	reps := append([]Ref(nil), p.replicas...)
	p.mu.RUnlock()
	ack := joinAck{Path: path, Refs: refs,
		Replicas: append(append([]Ref(nil), reps...), Ref{ID: p.id, Path: path})}
	p.net.Send(p.id, from, KindJoin, ack)
	jref := Ref{ID: from, Path: path}
	for _, r := range reps {
		p.net.Send(p.id, r.ID, KindJoin, memberMsg{Member: jref})
	}
	p.addReplica(jref)
}

// handleJoinAck installs the adopted position at the joiner and pulls
// the partition's state from the peer that adopted it.
func (p *Peer) handleJoinAck(ack joinAck, from simnet.NodeID) {
	p.setPath(ack.Path)
	for l, ls := range ack.Refs {
		for _, r := range ls {
			p.addRef(l, r)
		}
	}
	for _, r := range ack.Replicas {
		p.addReplica(r)
	}
	p.openDigestRound(from)
}

// sendStateChunks ships entries to `to` as transfer pages of at most
// Config.PageSize entries (everything at once when paging is off) —
// the one sender of xferMsg, for a split's dropped half and a merge's
// data phase alike.
func (p *Peer) sendStateChunks(to simnet.NodeID, entries []store.Entry) {
	ps := p.cfg.PageSize
	if ps <= 0 {
		ps = len(entries)
	}
	for i := 0; i < len(entries); i += ps {
		end := min(i+ps, len(entries))
		p.net.Send(p.id, to, KindXferData, xferMsg{Entries: entries[i:end]})
	}
}

// --- Live split -----------------------------------------------------------

// SplitGroup splits one replica group in place: the peers sharing a
// path divide into two halves that take the path's 0- and
// 1-extensions, repartition their stored data, and cross-link at the
// new trie level. Unlike the exchange protocol's bootstrap splits this
// runs while queries are mid-flight: each half serves its side
// immediately, live paged streams are clipped server-side to the half
// their server kept, and the origins' claim migration re-covers the
// rest. Requires at least two peers (each side must stay non-empty);
// an odd count leaves the extra peer on the 0-side.
func SplitGroup(group []*Peer) error {
	if len(group) < 2 {
		return fmt.Errorf("pgrid: split needs >= 2 same-path peers, got %d", len(group))
	}
	base := group[0].Path()
	for _, g := range group[1:] {
		if !g.Path().Equal(base) {
			return fmt.Errorf("pgrid: split group paths differ: %s vs %s", base, g.Path())
		}
	}
	if base.Len() >= MaxSplitDepth {
		return fmt.Errorf("pgrid: partition %s already at max depth", base)
	}
	sorted := append([]*Peer(nil), group...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	half := (len(sorted) + 1) / 2
	sides := [2][]*Peer{sorted[:half], sorted[half:]}
	var paths [2]keys.Key
	var refs [2][]Ref
	for b := range sides {
		paths[b] = base.Append(b)
		for _, g := range sides[b] {
			refs[b] = append(refs[b], Ref{ID: g.id, Path: paths[b]})
		}
	}
	for b := range sides {
		for _, g := range sides[b] {
			g.applySplit(paths[b], refs[b], refs[1-b])
		}
	}
	return nil
}

// applySplit moves this peer one trie level deeper: retain the kept
// half of the store, adopt the new path (clearing the routing cache —
// the trie it was learned against no longer exists), rebuild the
// replica roster from the same-side members, and point the new
// bottom routing level at the other side. Entries of the dropped half
// are pushed to the other side once, in transfer pages: both sides
// held the full partition as replicas, so the transfer only matters
// for a write that had not finished gossiping at the instant of the
// split (idempotent on the receiver — the store's version tie-break).
func (p *Peer) applySplit(newPath keys.Key, sameSide, otherSide []Ref) {
	var dropped []store.Entry
	for _, kind := range triple.AllIndexKinds {
		dropped = append(dropped, p.store.RetainRange(kind, partitionRange(newPath))...)
	}
	p.setPath(newPath)
	p.mu.Lock()
	p.replicas = nil
	p.mu.Unlock()
	for _, r := range sameSide {
		p.addReplica(r)
	}
	level := newPath.Len() - 1
	for _, r := range otherSide {
		p.addRef(level, r)
	}
	if len(otherSide) > 0 {
		p.sendStateChunks(otherSide[0].ID, dropped)
	}
}

// --- Merge ----------------------------------------------------------------

// TransferStores ships every leaver's full state (tombstones included)
// to `to`, which applies it and gossips winners on to its replica
// group — the data phase of a graceful merge. It runs while both
// sibling groups still serve their original paths, so no query ever
// observes a partition that claims a region it does not hold; the
// receiving group's baked stream clips keep the foreign entries out of
// its live scans until WidenGroup makes them its own.
func TransferStores(leavers []*Peer, to *Peer) {
	for _, l := range leavers {
		l.sendStateChunks(to.id, l.store.Facts())
	}
}

// WidenGroup widens one replica group to its parent path after the
// sibling partition's state has been transferred in (TransferStores):
// the group now owns both halves. setPath truncates the routing level
// that pointed at the dissolved sibling and clears the routing cache;
// live paged streams keep their baked clip, so a stream started under
// the old path never serves the newly absorbed half — the sibling's
// own streams, or their routed resumes landing here, do.
func WidenGroup(group []*Peer) error {
	if len(group) == 0 {
		return fmt.Errorf("pgrid: widen needs a non-empty group")
	}
	base := group[0].Path()
	if base.Len() == 0 {
		return fmt.Errorf("pgrid: cannot widen the root partition")
	}
	for _, g := range group[1:] {
		if !g.Path().Equal(base) {
			return fmt.Errorf("pgrid: widen group paths differ: %s vs %s", base, g.Path())
		}
	}
	parent := base.Prefix(base.Len() - 1)
	refs := make([]Ref, 0, len(group))
	for _, g := range group {
		refs = append(refs, Ref{ID: g.id, Path: parent})
	}
	for _, g := range group {
		g.setPath(parent)
		g.mu.Lock()
		g.replicas = nil
		g.mu.Unlock()
		for _, r := range refs {
			g.addReplica(r)
		}
	}
	return nil
}

// --- Mid-stream reconciliation -------------------------------------------

// splitClaim finds the claim a deeper-path response from the same
// server continues: the server's partition split mid-stream and its
// responses now carry the deeper identity. Returns the claim and its
// map key, or nil when the response belongs to no known stream.
// Callers hold the owning peer's mu.
func (s *scanState) splitClaim(from simnet.NodeID, spath keys.Key) (*scanClaim, string) {
	for key, cl := range s.claims {
		if cl.from == from && spath.HasPrefix(cl.path) && spath.Len() > cl.path.Len() {
			return cl, key
		}
	}
	return nil, ""
}

// migrateSplitClaimLocked re-keys a claim (and its cursor memo) from
// the pre-split partition to the deeper half its server kept, arms
// coverage-based completion (the split stream's final page releases
// the whole pre-split branch share, so the share ledger is no longer
// trustworthy), and classifies each abandoned sibling region by where
// the stream's cursor stood at the split:
//
//   - already scanned past → covered (all its rows were delivered);
//   - cursor inside it → a resume cursor clipped to the region, pulled
//     from the sibling half by the retry machinery (rows before the
//     cursor were delivered, rows after it stream from the new leaf);
//   - not reached yet → left uncovered, a clean gap the re-shower
//     refills from scratch.
//
// Aggregated streams classify differently: group states already sent
// (groups at or before the group-key cursor) were folded over the FULL
// pre-split partition, so the sibling region resumes at the same group
// cursor — every row then counts exactly once, pre-split rows through
// the already-shipped states and post-split rows through exactly one
// half's remaining pages. Callers hold the owning peer's mu.
func (p *Peer) migrateSplitClaimLocked(sc *scanState, cl *scanClaim, oldKey string, newPath keys.Key) {
	delete(sc.claims, oldKey)
	sc.claims[newPath.String()] = cl
	oldPath := cl.path
	cl.path = newPath
	cu := sc.cursors[oldKey] // the stream's cursor at the split; nil before any page
	if cu != nil {
		delete(sc.cursors, oldKey)
		cu.path = newPath
		sc.cursors[newPath.String()] = cu
	}
	sc.coverage = true
	for l := oldPath.Len(); l < newPath.Len(); l++ {
		q := newPath.Prefix(l).Append(1 - newPath.Bit(l))
		qs := q.String()
		if sc.hasCovered(q) {
			continue
		}
		if _, ok := sc.claims[qs]; ok {
			continue
		}
		if _, ok := sc.cursors[qs]; ok {
			continue
		}
		if cu == nil {
			continue // no pages yet: plain gap, the re-shower refills it
		}
		prior := cu.cont
		cpos := prior.R.Lo // ascending cursor lives on the range bound
		if prior.Desc {
			cpos = prior.Cursor
		}
		qr := keys.PrefixRange(q)
		switch {
		case prior.Agg != nil || qr.Contains(cpos):
			nc := prior
			nc.R = clipRangeToPrefix(nc.R, q)
			nc.StreamPath = q
			sc.cursors[qs] = &scanCursor{path: q, cont: nc, from: cu.from, last: cu.last}
		case !prior.Desc && cpos.Compare(qr.Lo) > 0,
			prior.Desc && cpos.Compare(qr.Lo) < 0:
			// The stream had moved past this region before the split:
			// its rows were all delivered.
			sc.covered = append(sc.covered, q)
		default:
			// Not reached yet: a clean gap for the re-shower.
		}
	}
}

// adjustStream reconciles a paged continuation with the server's
// current partition before serving. A server that split mid-stream
// (path now strictly deeper than the stream's) clips the continuation
// to the half it kept and adopts the deeper identity — the response
// tells the origin exactly which region the stream still covers, and
// the origin's claim migration re-covers the abandoned sibling. A
// server that widened (merge) keeps the original identity: the baked
// clip already pins the stream to the region it started in. A server
// whose path moved somewhere unrelated cannot serve the stream at all
// and drops the pull — the origin's pull hedge finds a live replica.
func (p *Peer) adjustStream(cont *pageCont) bool {
	if cont.StreamPath.IsEmpty() {
		return true
	}
	cur := p.Path()
	switch {
	case cur.HasPrefix(cont.StreamPath):
		if cur.Len() > cont.StreamPath.Len() {
			oldLo := cont.R.Lo
			cont.R = clipRangeToPrefix(cont.R, cur)
			if !cont.Desc && !cont.R.Lo.Equal(oldLo) {
				// The ascending cursor (R.Lo) fell outside the kept
				// half: the skip count belonged to the old cursor's
				// bucket, not the clipped bound. (A descending cursor
				// lives in Cursor, which the clip leaves alone.)
				cont.SkipAtLo = 0
			}
			cont.StreamPath = cur
		}
		return true
	case cont.StreamPath.HasPrefix(cur):
		return true
	default:
		return false
	}
}
