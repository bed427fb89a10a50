// Package pgrid implements the P-Grid structured overlay (Aberer,
// CoopIS 2001) that UniStore builds on: a virtual binary trie whose
// leaves are peers, prefix routing with logarithmic hop counts, an
// order-preserving placement of data (delegated to package keys),
// skew-aware trie construction for load balancing (Aberer et al.,
// VLDB 2005), replica groups with gossip-based loosely consistent
// updates (Datta et al., ICDCS 2003), range queries via the shower
// algorithm, and merging of independent overlays.
//
// Peers live inside a simnet.Network. In the network's deterministic
// mode an entire overlay runs in one goroutine; in concurrent mode
// each peer's messages are handled on its own worker goroutine while
// query drivers issue operations from arbitrary goroutines, so peer
// state (routing table, replica group, pending operations, local
// store) is guarded by a read-write mutex and protocol counters are
// atomic.
package pgrid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
)

// Ref is a routing reference: another peer's address and the path it
// had when the reference was learned.
type Ref struct {
	ID   simnet.NodeID
	Path keys.Key
}

// Config parameterizes peer behaviour.
type Config struct {
	// RefsPerLevel bounds the routing references kept per trie level
	// (fault tolerance and load spreading). P-Grid keeps a handful.
	RefsPerLevel int
	// MaxReplicas bounds the replica group size tracked per peer.
	MaxReplicas int
	// AntiEntropyEvery enables periodic replica reconciliation when
	// positive (simulated time between rounds).
	AntiEntropyEvery int64 // nanoseconds of simulated time; 0 disables
	// PageSize bounds the entries per range-scan response: serving
	// peers answer in pages of at most this many entries, with the
	// origin pulling continuations only while it still needs rows.
	// 0 disables paging (one monolithic response per partition).
	PageSize int
	// FlowWindowBytes / FlowWindowMsgs size the receive window this
	// peer advertises to bulk senders (flow.go): the most unacked
	// bytes / messages a well-behaved sender keeps in flight toward
	// it, shrunk further while the peer's own inbox backs up. 0
	// selects the defaults; the knobs exist so the equivalence-matrix
	// tests can pin pathological windows.
	FlowWindowBytes int
	FlowWindowMsgs  int
	// Tracing enables distributed query tracing (tracing.go): operations
	// issued WithTrace carry a trace context on every request, serving
	// peers record spans and piggyback them home on responses, and the
	// origin accumulates the full trace per operation. Off by default —
	// untraced runs send identical messages and pay zero extra bytes.
	Tracing bool
}

// DefaultHedgeAfter is the simulated time a direct probe may stay
// unanswered before it is hedged to a sibling replica; page pulls and
// acked inserts retry at the same deadline, and a range scan
// re-showers its missing partitions at scanRetryFactor times it. It
// sits far above any healthy round trip of the experiment latency
// models and far below the operation deadline.
const DefaultHedgeAfter = 100 * time.Millisecond

// scanRetryFactor scales the hedge deadline into the range-scan
// re-shower deadline: a shower fans out over log n hops and possibly
// several pages, so its patience is an order of magnitude longer than
// a single probe's.
const scanRetryFactor = 10

// maxProbeAttempts bounds how many replicas a probe group tries before
// falling back to fully routed per-key lookups.
const maxProbeAttempts = 3

// maxScanRetries bounds the coverage re-shower rounds of one range
// query; past it the operation expires with partial results as before.
const maxScanRetries = 4

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{RefsPerLevel: 3, MaxReplicas: 4}
}

// AppHandler processes application payloads routed through the overlay
// (UniStore's mutant query plans). hops is the routing distance the
// payload travelled.
type AppHandler func(p *Peer, payload any, from simnet.NodeID, hops int)

// Peer is one P-Grid node: a leaf of the virtual binary trie.
type Peer struct {
	net Transport
	id  simnet.NodeID

	// mu guards the trie position and protocol state below. The peer's
	// own message handler is the only writer of path/refs/replicas
	// (single worker goroutine per node), but query drivers read them
	// from other goroutines, and pending-operation state is written
	// from both sides.
	mu   sync.RWMutex
	path keys.Key
	// refs[l] holds references to peers whose paths agree with ours on
	// the first l bits and differ at bit l — they cover the sibling
	// subtree at level l. len(refs) tracks len(path).
	refs     [][]Ref
	replicas []Ref
	// cache is the learned partition→node routing cache (cache.go),
	// guarded by mu like the routing table it shortcuts.
	cache *routeCache
	// flow is the sliding-window credit state (flow.go): sender-side
	// per-receiver windows and this peer's own advertised-window
	// inputs. It carries its own innermost mutex — safe to consult
	// with or without mu held.
	flow *flowTable
	// gossipPend coalesces eager pushes a replica's window would not
	// admit: one latest-version entry per fact per replica, flushed
	// oldest-first in window-sized batches as credit frees (gossip.go).
	// Guarded by
	// gossipMu (innermost, never held across sends).
	gossipMu   sync.Mutex
	gossipPend map[simnet.NodeID]*gossipBuf

	store *store.Store
	cfg   Config

	// Request correlation for operations this peer originated
	// (guarded by mu).
	reqSeq  uint64
	pending map[uint64]*pendingOp

	// Monotonic version source for locally issued updates.
	clock atomic.Uint64

	app AppHandler

	// Counters for experiments (atomic: bumped from worker goroutines,
	// snapshotted by experiment drivers).
	stats peerCounters

	// Tracing state (tracing.go), allocated only with cfg.Tracing set:
	// tring buffers spans this peer served, traces accumulates the spans
	// of operations this peer originated (keyed by qid, independent of
	// the pendingOp lifetime so late riders still reconcile), spanSeq
	// sources span ids. traceMu is innermost — never held across sends.
	tring   *trace.SpanRing
	traceMu sync.Mutex
	traces  map[uint64][]trace.Span
	spanSeq atomic.Uint64
}

// peerCounters holds the atomic protocol counters behind PeerStats.
type peerCounters struct {
	forwarded          atomic.Int64
	delivered          atomic.Int64
	rangeServed        atomic.Int64
	routeFailures      atomic.Int64
	gossipApplied      atomic.Int64
	gossipSuppressed   atomic.Int64
	exchangesRun       atomic.Int64
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheFwdHits       atomic.Int64
	cacheInvalidations atomic.Int64
	pagesServed        atomic.Int64
	probeGroups        atomic.Int64
	probeRetries       atomic.Int64
	scanRetries        atomic.Int64
	pageHedges         atomic.Int64
	writeRetries       atomic.Int64
	digestRounds       atomic.Int64
	digestPulls        atomic.Int64
	flowBulkSends      atomic.Int64
	flowStalls         atomic.Int64
}

// PeerStats is a snapshot of per-peer protocol counters.
type PeerStats struct {
	Forwarded     int // envelopes passed on toward their target
	Delivered     int // envelopes this peer was responsible for
	RangeServed   int // range branches served from the local store
	RouteFailures int // envelopes dropped for lack of a live reference
	GossipApplied int
	// GossipSuppressed counts replica pushes the dedup layers withheld:
	// batch entries superseded within one push, pushes skipped back to
	// the peer an entry arrived from, and pending entries superseded
	// before their flush.
	GossipSuppressed int
	ExchangesRun     int
	// Routing-cache counters: probes sent direct on a cached partition
	// owner, probes that took the full routed path, and cache entries
	// dropped or replaced (dead node, split partition, churn).
	RouteCacheHits          int
	RouteCacheMisses        int
	RouteCacheInvalidations int
	// RouteCacheFwdHits counts envelopes an INTERMEDIATE hop short-cut
	// through its own cache while forwarding (the origin's hits are
	// RouteCacheHits). Kept separate so the cost model's hit rate stays
	// a per-probe origin statistic.
	RouteCacheFwdHits int
	// PagesServed counts paged range-scan responses (including the
	// final page of each paged scan).
	PagesServed int
	// ProbeGroups counts direct probe groups sent to a chosen replica;
	// ProbeRetries counts the groups re-sent to a sibling (hedged past
	// the deadline or aimed at a dead owner) — their ratio is the cost
	// model's RetryRate. ScanRetries counts coverage re-shower rounds
	// of range queries.
	ProbeGroups  int
	ProbeRetries int
	ScanRetries  int
	// PagePullHedges counts stalled page pulls re-sent to a sibling
	// replica (or re-routed) after the hedge deadline — the pull-level
	// failover that recovers a server dying between pages without
	// waiting for the scan-level re-shower backstop.
	PagePullHedges int
	// WriteRetries counts acked insert entries re-routed after the
	// hedge deadline passed without their ack — the write-path mirror
	// of probe failover (idempotent by entry version).
	WriteRetries int
	// Digest anti-entropy: rounds participated in, and bucket pulls
	// answered with entry pages.
	DigestRounds int
	DigestPulls  int
	// Flow control: credit-gated bulk sends issued, and the subset
	// that stalled waiting for receiver credit. Their ratio is the
	// cost model's Pressure input.
	FlowBulkSends int
	FlowStalls    int
}

// pendingOp tracks one outstanding operation issued by this peer.
// Completion fires when shares reach needShares (range queries) or
// responses reach needResponses (lookups, acked inserts) — whichever
// rule is armed. Fields are guarded by the owning peer's mu; fin is
// closed exactly once on completion so concurrent-mode waiters can
// block without pumping the event loop.
type pendingOp struct {
	entries       []store.Entry
	count         int
	shares        int64
	needShares    int64
	needResponses int
	hops          int // max hops over all responses
	responses     int
	done          bool
	complete      bool // all expected responses arrived (vs. expired)
	onDone        func(*pendingOp)
	// onPartial, when set, receives each response's entries the moment
	// it arrives (pages of a paged scan, shard responses) instead of
	// accumulating them for the final result — the streaming delivery
	// that lets a consumer's early-out stop the page pull loop
	// mid-scan. It is invoked outside the peer lock, strictly before
	// the completion callback, and never after it.
	onPartial func([]store.Entry)
	// aggSpec/onAgg mark a pushed-down aggregation: responses carry
	// encoded partial group states, decoded and streamed to onAgg with
	// the same ordering guarantees onPartial has.
	aggSpec *agg.Spec
	onAgg   func([]agg.State)
	fin     chan struct{}

	// Key-tracked probe state (lookups with replica failover).
	// probeWant holds the keys still unanswered; responses
	// mark keys answered through their ProbeKeys echo, so a hedged
	// duplicate can neither double-count completion nor re-deliver
	// rows. groups tracks the direct sends awaiting answers for the
	// hedge timer.
	probeWant map[string]bool
	groupSeq  uint64
	groups    map[uint64]*probeGroup

	// scan tracks a range query's failover bookkeeping (which
	// partitions answered, for the coverage re-shower).
	scan *scanState

	// insertPend tracks an acked insert's entries still awaiting their
	// ack, by sequence number: the retry timer re-routes the missing
	// ones (idempotent — the store resolves duplicates by version), and
	// a duplicate ack from a retried entry cannot double-count.
	insertPend map[uint8]store.Entry

	// tc is the trace context this operation's requests carry (parented
	// on the origin's root span); zero when the op is untraced. Retries
	// and hedges re-send with the matching flag set.
	tc trace.Ctx
}

// probeGroup is one direct send of probe keys to a chosen replica,
// tracked until its keys are answered or the hedge deadline passes.
type probeGroup struct {
	kind    uint8
	keys    []keys.Key
	target  simnet.NodeID
	path    keys.Key // partition path the group was aimed at
	sentAt  time.Duration
	attempt int
	tried   map[simnet.NodeID]bool
}

// scanState is the failover bookkeeping of one range query: enough to
// re-shower the partitions that never finished answering, and the set
// of partitions that did (fed by Final responses). Once a retry round
// has run, completion switches from share mass to coverage — covered
// partitions tiling the queried range — because retry showers carry no
// share mass (double-counting a late original against a retry could
// otherwise complete the operation while a partition is still silent).
//
// claims dedupes concurrent streams of one partition: the first
// responder for a path owns its stream, and responses (pages included)
// from any other replica of the same path are dropped whole — a retry
// racing a slow-but-alive original can never duplicate rows. A claim
// is released by the retry timer once its owner is dead or the stream
// has made no progress for a whole retry interval, so a genuinely
// wedged stream does hand the partition to a sibling.
type scanState struct {
	kind    uint8
	r       keys.Range
	desc    bool
	covered []keys.Key
	claims  map[string]*scanClaim
	// cursors memoizes each partition's page progress (the latest
	// accepted continuation), independent of stream claims: it
	// survives claim releases and lost resume pulls, so EVERY retry
	// round resumes a partially-streamed partition at its cursor —
	// never a from-scratch re-shower that would replay delivered rows.
	// Every page must resume at it (scanCursor.resumedBy). An entry is
	// dropped when its partition's final page lands.
	cursors  map[string]*scanCursor
	retries  int
	coverage bool // completion by coverage (armed by the first retry)
}

// scanClaim is one partition's stream ownership within a range query.
type scanClaim struct {
	path keys.Key
	from simnet.NodeID
	last time.Duration // simulated instant of the stream's last response
}

// scanCursor is one partition's resume point: the continuation of the
// last page accepted from its stream, the server that sent that page,
// and its last row (zero on aggregated streams). hedges counts the
// pull-level retries spent at this exact position; a fresh page resets
// it (a new scanCursor replaces the old), so the budget is per page,
// with the scan-level re-shower still backstopping a position that
// exhausts it.
type scanCursor struct {
	path   keys.Key
	cont   pageCont
	from   simnet.NodeID
	last   store.Entry
	hedges int
}

// NewPeer creates a peer with an empty path and registers it in the
// transport. The peer is not part of any trie until built or
// bootstrapped. Any Transport works: the simulated network (both
// modes) or a real one (netx).
func NewPeer(net Transport, cfg Config) *Peer {
	if cfg.RefsPerLevel <= 0 {
		cfg.RefsPerLevel = 3
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 4
	}
	if cfg.FlowWindowBytes == 0 {
		cfg.FlowWindowBytes = DefaultFlowWindowBytes
	}
	if cfg.FlowWindowMsgs == 0 {
		cfg.FlowWindowMsgs = DefaultFlowWindowMsgs
	}
	p := &Peer{
		net:        net,
		store:      store.New(),
		cfg:        cfg,
		cache:      newRouteCache(),
		flow:       newFlowTable(),
		gossipPend: make(map[simnet.NodeID]*gossipBuf),
		pending:    make(map[uint64]*pendingOp),
	}
	if cfg.Tracing {
		p.tring = trace.NewSpanRing(0)
		p.traces = make(map[uint64][]trace.Span)
	}
	p.id = net.AddNode(p)
	if cfg.AntiEntropyEvery > 0 {
		p.scheduleAntiEntropy()
	}
	return p
}

// ID returns the peer's network address.
func (p *Peer) ID() simnet.NodeID { return p.id }

// Path returns the peer's trie path (its key-space responsibility).
func (p *Peer) Path() keys.Key {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.path
}

// Store exposes the peer's local storage service (the demo UI's
// "inspect the local data" tab).
func (p *Peer) Store() *store.Store { return p.store }

// Net returns the transport the peer runs on.
func (p *Peer) Net() Transport { return p.net }

// Stats returns a snapshot of the peer's protocol counters.
func (p *Peer) Stats() PeerStats {
	return PeerStats{
		Forwarded:               int(p.stats.forwarded.Load()),
		Delivered:               int(p.stats.delivered.Load()),
		RangeServed:             int(p.stats.rangeServed.Load()),
		RouteFailures:           int(p.stats.routeFailures.Load()),
		GossipApplied:           int(p.stats.gossipApplied.Load()),
		GossipSuppressed:        int(p.stats.gossipSuppressed.Load()),
		ExchangesRun:            int(p.stats.exchangesRun.Load()),
		RouteCacheHits:          int(p.stats.cacheHits.Load()),
		RouteCacheMisses:        int(p.stats.cacheMisses.Load()),
		RouteCacheFwdHits:       int(p.stats.cacheFwdHits.Load()),
		RouteCacheInvalidations: int(p.stats.cacheInvalidations.Load()),
		PagesServed:             int(p.stats.pagesServed.Load()),
		ProbeGroups:             int(p.stats.probeGroups.Load()),
		ProbeRetries:            int(p.stats.probeRetries.Load()),
		ScanRetries:             int(p.stats.scanRetries.Load()),
		PagePullHedges:          int(p.stats.pageHedges.Load()),
		WriteRetries:            int(p.stats.writeRetries.Load()),
		DigestRounds:            int(p.stats.digestRounds.Load()),
		DigestPulls:             int(p.stats.digestPulls.Load()),
		FlowBulkSends:           int(p.stats.flowBulkSends.Load()),
		FlowStalls:              int(p.stats.flowStalls.Load()),
	}
}

// Refs returns a copy of the routing table level l (the demo UI's
// "inspect the locally built routing tables" tab).
func (p *Peer) Refs(level int) []Ref {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if level < 0 || level >= len(p.refs) {
		return nil
	}
	return append([]Ref(nil), p.refs[level]...)
}

// Levels returns the number of routing-table levels (= path length).
func (p *Peer) Levels() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.refs)
}

// Replicas returns the peer's known replica group.
func (p *Peer) Replicas() []Ref {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]Ref(nil), p.replicas...)
}

// SetAppHandler installs the handler for application payloads (mutant
// query plans). The triple-storage layer calls this once per peer.
func (p *Peer) SetAppHandler(h AppHandler) {
	p.mu.Lock()
	p.app = h
	p.mu.Unlock()
}

func (p *Peer) appHandler() AppHandler {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.app
}

// Responsible reports whether key k falls into this peer's partition.
func (p *Peer) Responsible(k keys.Key) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return k.HasPrefix(p.path)
}

// NextClock returns a fresh version for an update issued at this peer.
// P-Grid's loose consistency needs only per-fact monotonicity at the
// writer; cross-writer conflicts resolve by the store's deterministic
// tie-break.
func (p *Peer) NextClock() uint64 { return p.clock.Add(1) }

// runFlow performs the sends a flow-table release returned (outside
// any peer lock), then gives every replica with parked gossip a flush
// chance: wherever credit frees, a pending push must get its shot, or
// a buffer could outlive the pressure that parked it.
func (p *Peer) runFlow(sends []func()) {
	for _, send := range sends {
		send()
	}
	p.flushGossipPending()
}

// HandleMessage implements simnet.Handler: the protocol dispatcher.
func (p *Peer) HandleMessage(m simnet.Message) {
	p.flow.observeIn(m.Size)
	switch m.Kind {
	case KindRoute:
		p.handleRoute(m.Payload.(routeEnvelope), m.From, m.Size)
	case KindRange:
		p.handleRange(m.Payload.(rangeMsg), m.Size)
	case KindResponse:
		p.handleResponse(m.Payload.(queryResp), m.Size)
	case KindAck:
		p.handleAck(m.Payload.(ackMsg), m.From, m.Size)
	case KindGossip:
		p.handleGossip(m.Payload.(gossipMsg), m.From)
	case KindGossipAck:
		ga := m.Payload.(gossipAckMsg)
		p.runFlow(p.flow.release(flowKey{qid: ga.ID}, m.From, ga.WinBytes, ga.WinMsgs))
	case KindAntiEnt:
		p.handleAntiEntropy(m.Payload.(antiEntropyMsg), m.From)
	case KindDigest:
		p.handleDigest(m.Payload.(digestMsg), m.From)
	case KindDigestPull:
		p.handleDigestPull(m.Payload.(digestPullMsg), m.From)
	case KindExchange:
		p.handleExchange(m.Payload.(exchangeMsg), m.From)
	case KindMultiLookup:
		p.handleMultiLookup(m.Payload.(multiLookupReq), m.Size)
	case KindPage:
		p.handlePage(m.Payload.(pageReq), m.Size)
	case KindXferData:
		// Split/re-home data: apply, then push the batch on to the
		// replica group (deduplicated, one gossipMsg per replica) so
		// siblings converge without waiting for an anti-entropy round.
		var won []store.Entry
		for _, e := range m.Payload.(xferMsg).Entries {
			if p.store.Apply(e) {
				won = append(won, e)
			}
		}
		if len(won) > 0 {
			p.pushToReplicas(won, m.From)
		}
	case KindJoin:
		switch jm := m.Payload.(type) {
		case joinReq:
			p.handleJoinReq(m.From)
		case joinAck:
			p.handleJoinAck(jm, m.From)
		case memberMsg:
			p.addReplica(jm.Member)
		}
	case KindLeave:
		p.handleLeave(m.Payload.(leaveMsg), m.From)
	case KindApp:
		a := m.Payload.(appMsg)
		if h := p.appHandler(); h != nil {
			h(p, a.Payload, m.From, a.Hops)
		}
	default:
		// Unknown kinds are ignored; forward compatibility.
	}
}

// deliver processes an envelope this peer is responsible for. size is
// the delivering message's wire size (0 for a local delivery); the
// request's trace span is charged env.Hops messages of that size.
func (p *Peer) deliver(env routeEnvelope, from simnet.NodeID, size int) {
	p.stats.delivered.Add(1)
	switch inner := env.Inner.(type) {
	case insertReq:
		p.applyInsert(inner, env.Hops, from, size)
	case lookupReq:
		ws := p.beginSpan(inner.TC, trace.OpLookup, env.Hops, env.Hops*size)
		p.serveKeys(inner.QID, inner.Origin, inner.Kind, []keys.Key{inner.Key}, inner.Agg,
			env.Hops+env.Spent, ws, inner.TC.TraceID)
	case pageReq:
		// A routed page pull: the churn re-shower resumes a dead
		// server's paged stream at its cursor through whichever replica
		// of the partition routing reaches.
		ws := p.beginSpan(inner.TC, trace.OpPage, env.Hops, env.Hops*size)
		p.servePage(inner.QID, inner.Origin, inner.Cont, inner.WinBytes, ws, inner.TC.TraceID)
	case appMsg:
		if h := p.appHandler(); h != nil {
			h(p, inner.Payload, from, env.Hops)
		}
	default:
		// Unknown payloads are dropped.
	}
}

func (p *Peer) applyInsert(req insertReq, hops int, from simnet.NodeID, size int) {
	ws := p.beginSpan(req.TC, trace.OpInsert, hops, hops*size)
	won := p.store.Apply(req.Entry)
	if won {
		p.pushToReplicas([]store.Entry{req.Entry}, from)
	}
	if req.QID != 0 {
		rows := 0
		if won {
			rows = 1
		}
		wb, wm := p.advertiseWindow()
		p.net.Send(p.id, req.Origin, KindAck, ackMsg{
			QID: req.QID, Hops: hops, Seq: req.Seq,
			WinBytes: wb, WinMsgs: wm,
			TS: p.finishSpan(ws, req.TC.TraceID, rows),
		})
	}
}

// advertiseWindow computes the receive window this peer piggybacks on
// acks and responses: the configured window, shrunk by what the
// transport says is already queued toward the peer (messages directly;
// bytes through the incoming-size EWMA), floored so a drowning
// receiver degrades senders to stop-and-wait rather than starving
// them.
func (p *Peer) advertiseWindow() (winBytes, winMsgs int) {
	backlog := p.net.Load(p.id)
	winMsgs = p.cfg.FlowWindowMsgs - backlog
	if winMsgs < 1 {
		winMsgs = 1
	}
	winBytes = p.cfg.FlowWindowBytes - int(float64(backlog)*p.flow.avgInSize())
	if winBytes < minAdvertiseBytes {
		winBytes = minAdvertiseBytes
	}
	return winBytes, winMsgs
}

// stampResp fills the responder-identity fields every query response
// carries: who answered, for which partition, and with which replica
// siblings — the raw material of the origin's owner-set cache. The
// responder's receive window rides along, so origins keep a fresh
// credit picture of every peer they hear from.
func (p *Peer) stampResp(r *queryResp) {
	r.WinBytes, r.WinMsgs = p.advertiseWindow()
	p.mu.RLock()
	r.From = p.id
	r.Path = p.path
	r.Replicas = append([]Ref(nil), p.replicas...)
	p.mu.RUnlock()
}

// String renders the peer for diagnostics.
func (p *Peer) String() string {
	return fmt.Sprintf("peer{id=%d path=%s store=%d}", p.id, p.Path(), p.store.Len())
}
