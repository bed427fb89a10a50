package pgrid

import (
	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
)

// aggWireSize sizes an optional aggregation spec rider.
func aggWireSize(sp *agg.Spec) int {
	if sp == nil {
		return 0
	}
	return sp.WireSize()
}

// Message kinds, used for simnet accounting. The experiment harness
// separates maintenance traffic (exchange, gossip) from query traffic
// (route, range, response) through these labels.
const (
	KindRoute       = "pgrid.route"
	KindRange       = "pgrid.range"
	KindResponse    = "pgrid.resp"
	KindAck         = "pgrid.ack"
	KindGossip      = "pgrid.gossip"
	KindGossipAck   = "pgrid.gossipack"
	KindAntiEnt     = "pgrid.antientropy"
	KindExchange    = "pgrid.exchange"
	KindXferData    = "pgrid.xfer"
	KindApp         = "pgrid.app"
	KindMultiLookup = "pgrid.mlookup"
	KindPage        = "pgrid.page"
	KindDigest      = "pgrid.digest"
	KindDigestPull  = "pgrid.digestpull"
	KindJoin        = "pgrid.join"
)

// TotalShare is the share mass carried by a range/broadcast query;
// the origin knows the query has reached every overlapping partition
// when received shares sum to TotalShare.
const TotalShare = 1 << 30

// routeEnvelope carries a payload toward the peer responsible for
// Target. Hops counts forwarding steps for the logarithmic-routing
// experiments. Spent carries legs the payload's journey already paid
// before this envelope existed (a mis-addressed probe being re-routed
// by its stale recipient): they extend the reported end-to-end hop
// count but are NOT charged to the serving span — the probe message
// itself is accounted by the span of the peer that re-routed it.
type routeEnvelope struct {
	Target keys.Key
	Hops   int
	Spent  int
	Inner  any
}

func (e routeEnvelope) WireSize() int {
	s := e.Target.Len()/8 + 8
	if w, ok := e.Inner.(interface{ WireSize() int }); ok {
		s += w.WireSize()
	}
	return s
}

// insertReq asks the responsible peer to apply one index entry and ack
// it to Origin. Seq identifies the entry within its Write operation,
// echoed in the ack so the origin's retry bookkeeping is per-entry
// exact.
type insertReq struct {
	Entry  store.Entry
	QID    uint64
	Origin simnet.NodeID
	Seq    uint8
	// TC is the trace context (zero when tracing is off): the serving
	// peer records a span under TC.Parent and rides it home on the ack.
	TC trace.Ctx
}

func (r insertReq) WireSize() int { return r.Entry.WireSize() + 13 + r.TC.WireSize() }

// lookupReq asks the responsible peer for the entries at exactly Key.
// With Agg set the peer aggregates the matching entries and answers
// with per-group states instead of rows (the pushed-down form of a
// single-key aggregation).
type lookupReq struct {
	QID    uint64
	Origin simnet.NodeID
	Kind   uint8 // triple.IndexKind
	Key    keys.Key
	Agg    *agg.Spec
	// TC is the trace context (zero when tracing is off).
	TC trace.Ctx
}

func (r lookupReq) WireSize() int { return r.Key.Len()/8 + 16 + aggWireSize(r.Agg) + r.TC.WireSize() }

// multiLookupReq batches several exact-key probes of one query into a
// single message, sent directly to the peer the sender's routing cache
// believes responsible for all of them. The receiver answers the keys
// it covers in one batched queryResp (ProbeKeys = keys answered) and
// re-routes the rest as ordinary lookupReq envelopes — a stale cache
// degrades to normal routing, never to a wrong answer.
type multiLookupReq struct {
	QID    uint64
	Origin simnet.NodeID
	Kind   uint8 // triple.IndexKind
	Keys   []keys.Key
	// Agg, when set, asks the peer to aggregate the matching entries of
	// the keys it covers into group states (one batched state answer
	// instead of rows); mis-attributed keys re-route with the spec
	// attached, so a stale cache degrades to routed aggregation.
	Agg *agg.Spec
	// TC is the trace context (zero when tracing is off). Re-routed
	// keys carry a child context parented on the probed peer's span.
	TC trace.Ctx
}

func (r multiLookupReq) WireSize() int {
	s := 16 + aggWireSize(r.Agg) + r.TC.WireSize()
	for _, k := range r.Keys {
		s += k.Len()/8 + 2
	}
	return s
}

// rangeMsg implements the shower algorithm: it fans out down the trie,
// reaching every peer whose partition overlaps R exactly once. Level is
// the trie depth already resolved; Share is this branch's portion of
// TotalShare.
type rangeMsg struct {
	QID    uint64
	Origin simnet.NodeID
	Kind   uint8
	R      keys.Range
	Level  int
	Share  int64
	Hops   int
	// PageSize bounds the entries per response: a serving peer with
	// more rows answers in pages, parking a continuation token in the
	// response for the origin to pull the next page with (0 = one
	// monolithic response). Set from the origin's Config.PageSize so
	// the whole shower pages uniformly.
	PageSize int
	// Desc serves (and pages) each partition's overlap in descending
	// key order, so a descending ranked scan streams pages instead of
	// buffering a whole partition for reversal.
	Desc bool
	// Agg, when set, turns the scan into peer-side aggregation: each
	// overlapping partition matches its stored entries against the
	// spec's pattern, folds them into per-group partial states and
	// answers with those (paged by groups when PageSize is set) instead
	// of shipping rows.
	Agg *agg.Spec
	// WinBytes/WinMsgs advertise the ORIGIN's receive window for this
	// stream (flow.go): a serving peer shrinks its effective page so one
	// response fits WinBytes, making PageSize a cap rather than a
	// constant. 0 = no window (uncontrolled).
	WinBytes int
	WinMsgs  int
	// TC is the trace context (zero when tracing is off). Each shower
	// branch forwards a child context parented on the forwarder's span,
	// so the assembled trace mirrors the trie fan-out.
	TC trace.Ctx
}

func (r rangeMsg) WireSize() int {
	return r.R.Lo.Len()/8 + r.R.Hi.Len()/8 + 44 + aggWireSize(r.Agg) + r.TC.WireSize()
}

// pageCont is the continuation token of a paged range scan: everything
// the serving peer needs to produce the next page, echoed back verbatim
// by the origin so the server stays stateless. The cursor is the key
// of the last entry sent (R.Lo resumes there, inclusive) plus how many
// entries of that key's bucket went out already — key-aligned, so a
// store mutation between pulls can only perturb the one bucket the
// cursor sits in, never shift the rest of the scan. Share is released
// only with the final page, which keeps the origin's completion
// accounting exact across any number of pages.
type pageCont struct {
	Kind uint8
	R    keys.Range
	// SkipAtLo is how many entries stored at exactly the cursor key
	// were already sent (0 on the first page, whose bounds are the
	// range's own). Ascending scans cursor on R.Lo; descending scans
	// cursor on the key just below R.Hi.
	SkipAtLo int
	Share    int64
	PageSize int
	Hops     int
	// Desc pages the partition in descending key order; the cursor
	// then lives at the top of R instead of the bottom, carried
	// explicitly in Cursor (R.Lo cannot double as it the way ascending
	// pages reuse the range bound).
	Desc   bool
	Cursor keys.Key
	// Agg marks an aggregation continuation: the server recomputes its
	// partition's group table over R and serves the next PageSize
	// groups after AggAfter (group-key cursor, "" = first page). Like
	// the row cursor, the token is stateless and any replica of the
	// partition can serve the next page.
	Agg      *agg.Spec
	AggAfter string
	// StreamPath is the serving partition's path at the moment the
	// stream began — the stream's identity under live splits and
	// merges. A server whose partition split mid-stream clips the
	// continuation to the half it kept and deepens this field, telling
	// the origin exactly which region the stream still covers; one that
	// widened in a merge keeps it, so a continuation never serves
	// outside the partition it started in.
	StreamPath keys.Key
}

func (c pageCont) WireSize() int {
	return c.R.Lo.Len()/8 + c.R.Hi.Len()/8 + c.Cursor.Len()/8 + c.StreamPath.Len()/8 + 29 +
		aggWireSize(c.Agg) + len(c.AggAfter)
}

// pageReq pulls the next page of a paged range scan, sent directly to
// the serving peer. The origin only issues it while the operation is
// still pending — an early-terminated query never pulls another page.
type pageReq struct {
	QID    uint64
	Origin simnet.NodeID
	Cont   pageCont
	// WinBytes/WinMsgs refresh the origin's advertised receive window
	// on every pull, so the server sizes the next page to what the
	// receiver can absorb NOW. 0 = no window.
	WinBytes int
	WinMsgs  int
	// TC is the trace context (zero when tracing is off), parented on
	// the span that produced the continuation — pages chain in the tree.
	TC trace.Ctx
}

func (r pageReq) WireSize() int { return r.Cont.WireSize() + 20 + r.TC.WireSize() }

// queryResp returns entries (or aggregated group states) to the origin.
// For range queries Share carries the branch mass. From and Path
// identify the responder — the origin's routing cache learns the
// partition→node map from them.
type queryResp struct {
	QID     uint64
	Entries []store.Entry
	Count   int
	Share   int64
	Hops    int
	From    simnet.NodeID
	Path    keys.Key // responding peer's path (routing-cache learning)
	// Replicas is the responder's replica group: the origin's routing
	// cache learns the whole owner set of the partition, which is what
	// the load-balanced replica chooser and the failover retries pick
	// from.
	Replicas []Ref
	// ProbeKeys lists the exact lookup keys this response answers.
	// Lookups are key-tracked: the origin marks these answered, so a
	// hedged duplicate response can never double-count completion or
	// re-deliver rows. A lookup response without any is trace-only.
	ProbeKeys []keys.Key
	// Final marks a response that completes its partition's branch of
	// a range scan (a monolithic answer, or the last page of a paged
	// one). The origin's coverage bookkeeping — which partitions have
	// fully answered, consulted by the churn-failover re-shower — is
	// fed only by final responses.
	Final bool
	// Cont, when non-nil, marks a partial page of a range scan: the
	// origin echoes it back in a pageReq to pull the next page. Share
	// on a partial page is 0; the final page carries the branch mass.
	Cont *pageCont
	// AggData carries encoded partial-aggregate states (agg.State) in
	// place of Entries when the operation pushed an aggregation down;
	// AggGroups is the group count it encodes. A page of an aggregated
	// scan is a bounded batch of group states, exactly as a row page is
	// a bounded batch of entries.
	AggData   []byte
	AggGroups int
	// ScanPath is the partition a range-scan response belongs to when
	// that differs from the responder's CURRENT path: live splits and
	// merges move a server mid-stream, and while Path must stay current
	// (it feeds routing-cache learning), the origin's stream claims,
	// cursors and coverage must key on the stream's partition. Empty
	// means Path.
	ScanPath keys.Key
	// WinBytes/WinMsgs piggyback the RESPONDER's receive window: the
	// origin's flow table records it per node, so later bulk sends
	// toward this peer (insert fan-out, state shipping) are credit-
	// gated against what the peer said it can absorb, and the window
	// EWMA feeds the replica chooser's pressure signal. 0 = no window.
	WinBytes int
	WinMsgs  int
	// TS piggybacks the serving peer's completed span home (nil when
	// tracing is off) — tracing adds bytes to responses, never messages.
	TS *trace.WireSpan
}

func (r queryResp) WireSize() int {
	s := 49 + len(r.Replicas)*10 + len(r.AggData) + r.ScanPath.Len()/8 + r.TS.WireSize()
	for _, k := range r.ProbeKeys {
		s += k.Len()/8 + 2
	}
	if r.Cont != nil {
		s += r.Cont.WireSize()
	}
	for _, e := range r.Entries {
		s += e.WireSize()
	}
	return s
}

// ackMsg confirms an insert reached its responsible peer; Seq echoes
// the entry it acknowledges. WinBytes/WinMsgs piggyback the acking
// peer's receive window (flow.go): the origin releases the entry's
// credit AND learns how much more this replica is willing to absorb —
// the sliding-window ack of the write path. 0 = no window.
type ackMsg struct {
	QID      uint64
	Hops     int
	Seq      uint8
	WinBytes int
	WinMsgs  int
	// TS piggybacks the applying peer's insert span home (nil when
	// tracing is off).
	TS *trace.WireSpan
}

func (a ackMsg) WireSize() int { return 21 + a.TS.WireSize() }

// gossipMsg pushes freshly written entries to replicas of the same
// partition. AckID, when nonzero, asks the replica for a gossipAckMsg
// echoing it — the credit release of a flow-controlled push; zero
// (flow control off) keeps the push fire-and-forget.
type gossipMsg struct {
	Entries []store.Entry
	AckID   uint64
}

func (g gossipMsg) WireSize() int {
	s := 16
	for _, e := range g.Entries {
		s += e.WireSize()
	}
	return s
}

// gossipAckMsg settles one flow-controlled gossip push: ID echoes the
// gossipMsg's AckID (releasing the sender's charge) and the replica's
// fresh receive window rides along like on every other ack.
type gossipAckMsg struct {
	ID       uint64
	WinBytes int
	WinMsgs  int
}

func (gossipAckMsg) WireSize() int { return 20 }

// antiEntropyMsg carries versioned replica state (facts and
// tombstones) answering one digest pull, in pages of at most
// Config.PageSize entries.
type antiEntropyMsg struct {
	Entries []store.Entry
	// More names the pulled buckets the responder did NOT finish
	// flushing because the puller's advertised window filled up, and
	// After is the last fact it shipped from More[0] (zero if none). The
	// puller re-pulls exactly these buckets from that cursor with a
	// fresh window — the pull loop of the windowed transfer. Set only on
	// the last page of a window's batch.
	More  []string
	After factPos
}

func (a antiEntropyMsg) WireSize() int {
	s := 8 + a.After.WireSize()
	for _, e := range a.Entries {
		s += e.WireSize()
	}
	for _, b := range a.More {
		s += len(b) + 2
	}
	return s
}

// factPos is a fact's place in store fact order (store.Facts sorts by
// kind, OID and attribute) within one digest bucket, whose name fixes
// the kind: the cursor of a window-cut pull. The zero value precedes
// every fact.
type factPos struct {
	OID, Attr string
}

func posOf(e store.Entry) factPos { return factPos{e.Triple.OID, e.Triple.Attr} }

// before reports whether f sorts strictly before g.
func (f factPos) before(g factPos) bool {
	if f.OID != g.OID {
		return f.OID < g.OID
	}
	return f.Attr < g.Attr
}

func (f factPos) WireSize() int { return len(f.OID) + len(f.Attr) }

// bucketSum summarizes one digest bucket (a key-prefix slice of one
// index) without shipping its entries: live+tombstone count, the
// highest version seen, and an order-independent hash of every
// (fact, version, deleted) triple. Two replicas whose summaries match
// hold identical bucket state with overwhelming probability; a
// mismatch names exactly which bucket to pull.
type bucketSum struct {
	Count      int
	MaxVersion uint64
	Hash       uint64
}

// digestMsg opens (Reply true) or answers (Reply false) an
// anti-entropy round: per-bucket version summaries of the sender's
// whole store, a few dozen bytes per bucket instead of the full entry
// payload the pre-digest protocol shipped every round.
type digestMsg struct {
	Buckets map[string]bucketSum
	Reply   bool
}

func (d digestMsg) WireSize() int {
	s := 9
	for b := range d.Buckets {
		s += len(b) + 20
	}
	return s
}

// digestPullMsg requests the entries of the named buckets — the ones
// whose summaries differed. Have carries, per requested bucket, the
// identity hashes (factHash: kind, fact, version, deleted) of every
// entry the PULLER already holds there: eight bytes per entry against
// the ~hundred shipping one costs. The responder answers with only the
// entries whose hash the puller lacks — the exact set difference — so
// a restart catch-up pays for the writes it missed, not for the bucket
// size. Responses arrive as antiEntropyMsg pages of at most
// Config.PageSize entries, reusing the paging machinery's bound.
type digestPullMsg struct {
	Buckets []string
	Have    map[string][]uint64
	// WinBytes/WinMsgs advertise the puller's receive window: the
	// responder flushes at most WinMsgs anti-entropy pages totalling at
	// most WinBytes entry bytes, then stops and names the unfinished
	// buckets in antiEntropyMsg.More for the puller to re-pull — the
	// puller paces the transfer, not the sender. 0 = no window.
	WinBytes int
	WinMsgs  int
	// After resumes a window-cut transfer at its cursor: the responder
	// skips the facts up to it in Buckets[0], which already shipped, and
	// Have leaves them out. Zero on a round's first pull.
	After factPos
}

func (d digestPullMsg) WireSize() int {
	s := 16 + d.After.WireSize()
	for _, b := range d.Buckets {
		s += len(b) + 2
	}
	for _, hs := range d.Have {
		s += 8 * len(hs)
	}
	return s
}

// exchangeMsg drives decentralized trie construction (bootstrap and
// merge): two peers compare paths, split or adopt complements, and
// swap routing references and data.
type exchangeMsg struct {
	Path     keys.Key
	Refs     [][]Ref // sender's routing table (pruned to relevant levels)
	Replicas []Ref
	// Data sent because the sender no longer covers its placement keys.
	Entries []store.Entry
	// Round trips a response exchange exactly once.
	IsReply bool
	// SplitBit is set when the sender has just split a shared path and
	// instructs the receiver to take the sibling side.
	SplitBit int
}

func (e exchangeMsg) WireSize() int {
	s := e.Path.Len()/8 + 16
	for _, ls := range e.Refs {
		s += len(ls) * 16
	}
	for _, en := range e.Entries {
		s += en.WireSize()
	}
	return s
}

// xferMsg ships entries to a peer after a split or responsibility
// change, outside the exchange round-trip.
type xferMsg struct {
	Entries []store.Entry
}

func (x xferMsg) WireSize() int {
	s := 8
	for _, e := range x.Entries {
		s += e.WireSize()
	}
	return s
}

// joinReq asks an existing peer to adopt the sender into its replica
// group — the first half of live membership growth (membership.go).
// The target answers with a joinAck (trie position and membership) and
// notifies its existing replicas with memberMsg. State does not ride
// the join: the joiner pulls it by opening a digest round on the ack,
// so a fresh peer pulls every bucket and a restarted one only the
// writes it missed.
type joinReq struct{}

func (joinReq) WireSize() int { return 4 }

// joinAck carries the target's trie position to a joining peer: path,
// routing references and the replica group (target included). The
// joiner adopts all three and becomes a live replica of the partition.
type joinAck struct {
	Path     keys.Key
	Refs     [][]Ref
	Replicas []Ref
}

func (a joinAck) WireSize() int {
	s := a.Path.Len()/8 + 8 + len(a.Replicas)*10
	for _, ls := range a.Refs {
		s += len(ls) * 10
	}
	return s
}

// memberMsg tells the existing replicas of a partition about a freshly
// joined member, so writes gossip to the newcomer immediately instead
// of waiting for an anti-entropy round to discover it.
type memberMsg struct{ Member Ref }

func (m memberMsg) WireSize() int { return m.Member.Path.Len()/8 + 10 }

// appMsg wraps application-level payloads (mutant query plans and their
// results). The overlay routes them like any other payload; the
// registered AppHandler interprets them.
type appMsg struct {
	Payload any
	Hops    int
}

func (a appMsg) WireSize() int {
	if w, ok := a.Payload.(interface{ WireSize() int }); ok {
		return w.WireSize() + 8
	}
	return 72
}
