package pgrid

import (
	"sort"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// This file is the serving side of in-network aggregation (WithAgg): a
// peer whose partition overlaps an aggregated range (or owns a probed
// key) matches its stored entries against the spec's pattern, folds them
// into per-group partial states, and ships those instead of rows. A
// page of an aggregated scan is a bounded batch of group states served
// in group-key order behind a stateless cursor, so the whole paging,
// claim-dedup and coverage-retry machinery of row scans applies
// unchanged — states are per-partition idempotent, which is what keeps
// failover exact.

// aggStates builds this peer's partial states for the spec over one
// key range of one index.
func (p *Peer) aggStates(kind triple.IndexKind, r keys.Range, spec *agg.Spec) []agg.State {
	tbl := agg.NewTable(spec)
	p.store.Scan(kind, r, func(e store.Entry) bool {
		tbl.AddTriple(e.Triple)
		return true
	})
	return tbl.States()
}

// serveAggPage answers one page of an aggregated range scan: the next
// cont.PageSize group states (all of them with paging off) after the
// cont.AggAfter group-key cursor. The table is recomputed per pull —
// the server keeps no per-scan state, so any replica of the partition
// can serve a resumed continuation, exactly like row pages.
//
// winBytes is the origin's advertised byte window: the page halves its
// group count until the encoded state blob fits (one group always
// ships — a window smaller than a single state degrades to
// group-at-a-time paging, never to silence). Shrinking is exact: the
// dropped groups reappear behind the tightened AggAfter cursor.
func (p *Peer) serveAggPage(qid uint64, origin simnet.NodeID, cont pageCont, winBytes int, ws *trace.WireSpan) {
	if cont.PageSize > 0 {
		p.stats.pagesServed.Add(1)
	}
	states := p.aggStates(triple.IndexKind(cont.Kind), cont.R, cont.Agg)
	if cont.AggAfter != "" {
		i := sort.Search(len(states), func(i int) bool {
			return states[i].GroupKey() > cont.AggAfter
		})
		states = states[i:]
	}
	resp := queryResp{QID: qid, Hops: cont.Hops}
	p.stampResp(&resp)
	resp.ScanPath = cont.StreamPath
	page := states
	more := false
	if cont.PageSize > 0 && len(states) > cont.PageSize {
		page = states[:cont.PageSize]
		more = true
	}
	blob := agg.EncodeStates(page)
	for winBytes > 0 && len(blob) > winBytes && len(page) > 1 {
		page = page[:(len(page)+1)/2]
		more = true
		blob = agg.EncodeStates(page)
	}
	resp.AggData = blob
	resp.AggGroups = len(page)
	resp.Count = len(page)
	if more {
		next := cont
		next.AggAfter = page[len(page)-1].GroupKey()
		resp.Cont = &next
	} else {
		resp.Share = cont.Share
		resp.Final = true
	}
	resp.TS = p.finishSpan(ws, resp.Count)
	p.net.Send(p.id, origin, KindResponse, resp)
}

// aggProbeResp fills an exact-key response with the aggregated form of
// the entries stored at its keys (serveKeys' pushdown form).
func aggProbeResp(resp *queryResp, spec *agg.Spec, entries []store.Entry) {
	tbl := agg.NewTable(spec)
	for _, e := range entries {
		tbl.AddTriple(e.Triple)
	}
	states := tbl.States()
	resp.AggData = agg.EncodeStates(states)
	resp.AggGroups = len(states)
	resp.Count = len(states)
}
