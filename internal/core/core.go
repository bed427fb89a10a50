// Package core assembles UniStore's triple storage layer (paper Fig. 1)
// from its substrates: the P-Grid overlay (pgrid) on a transport, the
// per-peer storage service (store), the VQL analyzer (vql + algebra),
// the query executor with mutant plans (physical), the cost-based
// adaptive optimizer (optimizer), and schema mappings (schema). A
// Cluster is one host of that stack — the unit the examples, tools,
// experiments and the daemon drive. NewCluster hosts every peer on one
// simulated network (simnet); NewNode hosts one process's share of a
// multi-process cluster on real TCP (netx). Both end in the same
// assembly, so the two differ only in the transport they are handed.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/algebra"
	"unistore/internal/cost"
	"unistore/internal/keys"
	"unistore/internal/netx"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/schema"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/store/wal"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// LatencyProfile selects the simulated network's delay model.
type LatencyProfile string

// Latency profiles.
const (
	LatencyConstant   LatencyProfile = "constant"    // 1ms fixed (hop counting)
	LatencyLAN        LatencyProfile = "lan"         // local cluster
	LatencyWAN        LatencyProfile = "wan"         // generic wide area
	LatencyPlanetLab  LatencyProfile = "planetlab"   // the paper's testbed
	LatencyTwoCluster LatencyProfile = "two-cluster" // two LAN sites over a WAN link
)

func (p LatencyProfile) model() simnet.LatencyModel {
	switch p {
	case LatencyLAN:
		return simnet.LANLatency()
	case LatencyWAN:
		return simnet.NewPairwiseLatency(simnet.WANLatency(), simnet.LANLatency())
	case LatencyPlanetLab:
		return simnet.NewPairwiseLatency(simnet.PlanetLabLatency(), simnet.LANLatency())
	case LatencyTwoCluster:
		return simnet.TwoClusterLatency()
	default:
		return simnet.ConstantLatency(time.Millisecond)
	}
}

// Config parameterizes a Cluster.
type Config struct {
	// Peers is the number of key-space partitions (default 16).
	Peers int
	// Replicas is the replica-group size per partition (default 1).
	Replicas int
	// Latency selects the delay model (default constant 1ms).
	Latency LatencyProfile
	// LossRate drops messages with this probability.
	LossRate float64
	// Seed drives all randomness (default 1).
	Seed int64
	// EnableQGram maintains the distributed q-gram index on inserts.
	EnableQGram bool
	// Optimizer tunes plan selection; zero value = DefaultOptions.
	Optimizer optimizer.Options
	// AntiEntropyInterval is the period of digest-based replica
	// reconciliation: replicas exchange per-prefix version summaries
	// and pull only the differing buckets, in PageSize-bounded pages.
	// 0 disables the rounds.
	AntiEntropyInterval time.Duration
	// AdaptiveSamples are the keys pgrid.PlanSpecs plans the trie from:
	// the leaf holding the most samples splits next (ties to the
	// shallowest leaf), so hot key regions get more partitions (load
	// balancing under skew). Without samples every leaf ties and the
	// trie is peer-balanced.
	AdaptiveSamples []keys.Key
	// Concurrent switches the simulated network into concurrent mode
	// once the overlay is built: messages are delivered by per-node
	// worker goroutines in parallel, and queries/inserts may be issued
	// from many goroutines at once. Exact per-seed repeatability of
	// message interleavings is traded for wall-clock parallelism; the
	// overlay topology itself is still built deterministically.
	Concurrent bool
	// TimeDilation compresses simulated link latency into wall clock
	// in concurrent mode: wall = simulated/TimeDilation (default
	// simnet.DefaultTimeDilation = 1000, i.e. a 1ms link costs 1µs).
	// Lower values make the simulation more faithful to real latency;
	// 1 runs in real time. Ignored in deterministic mode.
	TimeDilation float64
	// PageSize bounds every range-scan response to this many entries:
	// a responsible peer with more rows answers in pages, and the
	// query origin pulls continuations only while its pipeline still
	// needs rows — an early-terminated LIMIT/top-k never requests the
	// next page. 0 disables paging (one monolithic response per
	// partition, the pre-paging behaviour).
	PageSize int
	// FlowWindowBytes is each peer's receive window in payload bytes for
	// credit-gated bulk streams (paged scans, anti-entropy pages,
	// replicated insert fan-out): receivers advertise at most this much
	// un-acked in-flight data per sender, shrunk while their inbound
	// backlog grows. 0 selects pgrid's default (64 KiB).
	FlowWindowBytes int
	// FlowWindowMsgs is the companion message-count window (0 selects
	// pgrid's default of 32).
	FlowWindowMsgs int
	// Tracing enables end-to-end query tracing: peers record serving
	// spans for traced operations and piggyback them home on responses,
	// and every query Result carries the assembled QueryTrace. Off by
	// default — traced runs pay extra bytes (never extra messages).
	Tracing bool
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 16
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Optimizer == (optimizer.Options{}) {
		c.Optimizer = optimizer.DefaultOptions()
	}
	return c
}

// pgridConfig derives the overlay configuration from the host config.
func (c Config) pgridConfig() pgrid.Config {
	pcfg := pgrid.DefaultConfig()
	if c.AntiEntropyInterval > 0 {
		pcfg.AntiEntropyEvery = int64(c.AntiEntropyInterval)
	}
	pcfg.PageSize = c.PageSize
	pcfg.FlowWindowBytes = c.FlowWindowBytes
	pcfg.FlowWindowMsgs = c.FlowWindowMsgs
	pcfg.Tracing = c.Tracing
	return pcfg
}

// versionProcBits is the low-bit slice of every write version that
// carries the issuing process index: version = seq<<bits | proc.
// Versions from different processes can never collide, and within a
// process they are strictly monotone — the store's last-writer-wins
// rule stays total without any cross-process coordination.
const versionProcBits = 10

// Cluster is a running universal storage host: overlay peers on one
// transport, a query engine per peer, and the optimizer, statistics,
// write clock, metrics registry and trace log they share. A simnet
// host (NewCluster) holds every peer; a TCP host (NewNode) holds this
// process's share. With Config.Concurrent set, or on TCP, Insert/Query
// may be called from multiple goroutines; call Close when done.
type Cluster struct {
	cfg     Config
	pcfg    pgrid.Config
	tr      pgrid.Transport
	peers   []*pgrid.Peer
	engines []*physical.Engine
	opt     *optimizer.Optimizer
	stats   *cost.Stats
	// statsMu guards the optimizer statistics: ingest paths write them
	// and query optimization (including per-host re-optimization of
	// migrated plans) reads them, possibly from many goroutines.
	statsMu sync.RWMutex
	// seq and proc are the write clock (see nextVersion).
	seq  atomic.Uint64
	proc uint64
	// rates memoizes the O(peers) routing-cache counter aggregation so
	// repeated compilations at large N don't rescan every peer; entries
	// expire after rateWindow of transport time.
	ratesMu   sync.Mutex
	ratesOK   bool
	ratesAt   time.Duration
	hitRate   float64
	retryRate float64
	probeRTT  time.Duration
	pressure  float64
	// reg mirrors peer, transport and WAL counters under stable dotted
	// names at snapshot time; tlog retains recent query traces.
	reg  *trace.Registry
	tlog *trace.TraceLog
	// logf and slowQuery drive the slow-query log (NodeConfig.SlowQuery).
	logf      func(format string, args ...any)
	slowQuery time.Duration

	// The substrate hooks each constructor installs: sent reads the
	// transport's sent-message counter and whether a delta of it is
	// attributable to one query, settle drains an ingest call's overlay
	// work, close drains and releases the transport.
	sent   func() (int, bool)
	settle func()
	close  func() error

	// net is set on a simnet host only (Net, Kill, Revive).
	net *simnet.Network
	// tcp, procs, size and dbs are set on a TCP host only: the netx
	// transport, the cluster's process count and peer count, and each
	// hosted peer's WAL (nil without NodeConfig.DataDir).
	tcp   *netx.Transport
	procs int
	size  int
	dbs   []*wal.DB
}

// lockedReopt adapts the optimizer's Rechoose to its host's stats
// lock: hosted-plan re-optimization runs on network worker goroutines
// and must not race with concurrent ingest updating the statistics.
type lockedReopt struct {
	mu  *sync.RWMutex
	opt *optimizer.Optimizer
}

func (l lockedReopt) Rechoose(steps []physical.Step, tail physical.Tail, bindingCount int, peer *pgrid.Peer) []physical.Step {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.opt.Rechoose(steps, tail, bindingCount, peer)
}

// NewCluster builds a simnet host: every peer of the overlay on one
// simulated network.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	net := simnet.New(simnet.Config{
		Latency:  cfg.Latency.model(),
		LossRate: cfg.LossRate,
		Seed:     cfg.Seed,
	})
	pcfg := cfg.pgridConfig()
	// The ref tables draw from a source seeded like the network, so a
	// simnet cluster and a multi-process TCP cluster of the same
	// scenario share routing structure — a traced query assembles a
	// structurally identical tree on either transport.
	specs := pgrid.PlanSpecs(0, cfg.Peers, cfg.Replicas, cfg.AdaptiveSamples, pcfg, cfg.Seed)
	peers, err := pgrid.BuildFromSpecs(net, specs, specs, pcfg)
	if err != nil {
		// Unreachable: a fresh simulator hosting every spec assigns
		// IDs sequentially, exactly as the specs name them.
		panic(err)
	}
	c := newCluster(cfg, pcfg, net, peers, 0)
	c.net = net
	c.sent = func() (int, bool) {
		if net.Concurrent() {
			return 0, false // overlapping queries and timers share the counter
		}
		return net.Stats().MessagesSent, true
	}
	c.settle = func() { net.Settle() }
	c.close = func() error {
		net.Stop()
		return nil
	}
	c.reg.OnCollect(func(r *trace.Registry) {
		st := net.Stats()
		setCounter(r, "net.messages_sent", int64(st.MessagesSent))
		setCounter(r, "net.messages_delivered", int64(st.MessagesDelivered))
		setCounter(r, "net.messages_dropped", int64(st.MessagesDropped))
		setCounter(r, "net.bytes_sent", int64(st.BytesSent))
	})
	if cfg.Concurrent {
		net.StartConcurrent(cfg.TimeDilation)
	}
	return c
}

// newCluster is the one assembly both constructors end in: the
// statistics and optimizer, an engine per hosted peer, the write clock
// (resumed past any version this process wrote before a restart), the
// metrics registry with its peer collector, and the trace log. The
// caller installs the substrate hooks.
func newCluster(cfg Config, pcfg pgrid.Config, tr pgrid.Transport, peers []*pgrid.Peer, proc int) *Cluster {
	stats := cost.DefaultStats(cfg.Peers)
	stats.Replicas = cfg.Replicas
	stats.TotalTriples = 0
	stats.PageSize = cfg.PageSize
	c := &Cluster{
		cfg: cfg, pcfg: pcfg, tr: tr, proc: uint64(proc),
		stats: stats, opt: optimizer.New(stats, cfg.Optimizer),
		reg: trace.NewRegistry(), tlog: trace.NewTraceLog(0),
	}
	for _, p := range peers {
		c.addPeer(p)
	}
	c.recoverSeq()
	registerPeerMetrics(c.reg, func() []*pgrid.Peer { return c.peers })
	return c
}

// addPeer hosts p: it gets a query engine wired to the shared optimizer.
func (c *Cluster) addPeer(p *pgrid.Peer) int {
	c.peers = append(c.peers, p)
	c.engines = append(c.engines, physical.NewEngine(p, lockedReopt{&c.statsMu, c.opt}))
	return len(c.peers) - 1
}

// Close releases the host: a simnet host stops its network goroutines
// (a no-op in deterministic mode); a TCP host drains pending operations
// (up to drainTimeout), closes the transport — flushing queued frames,
// canceling timers, joining every goroutine — and only then closes the
// WALs, fsyncing the tail and writing each clean-shutdown marker (no
// mutation can arrive once the transport is down). The host must not
// be used afterwards.
func (c *Cluster) Close() error { return c.close() }

// Engine exposes the query engine attached to one peer (benchmarks and
// tests open compiled plans on it directly).
func (c *Cluster) Engine(peerIdx int) *physical.Engine {
	return c.engines[peerIdx%len(c.engines)]
}

// Net exposes the simulated network (experiment instrumentation; simnet
// host only).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Peers returns the hosted overlay peers.
func (c *Cluster) Peers() []*pgrid.Peer { return c.peers }

// Stats returns the optimizer's statistics snapshot.
func (c *Cluster) Stats() *cost.Stats { return c.stats }

// Registry returns the host's unified metrics registry. Snapshot it for
// point-in-time values, or take before/after Snapshot.Sub deltas around
// a query for per-query attribution.
func (c *Cluster) Registry() *trace.Registry { return c.reg }

// TraceLog returns the bounded buffer of recently completed query
// traces (always non-nil; empty unless tracing is on).
func (c *Cluster) TraceLog() *trace.TraceLog { return c.tlog }

// Size returns the number of hosted peers.
func (c *Cluster) Size() int { return len(c.peers) }

// anyPeer draws a random hosted origin from the transport's seeded
// randomness.
func (c *Cluster) anyPeer() int { return int(c.tr.Int63()) % len(c.peers) }

// nextVersion issues a write version unique across the cluster: the
// host's sequence in the high bits, its process index (0 on simnet) in
// the low bits.
func (c *Cluster) nextVersion() uint64 {
	return c.seq.Add(1)<<versionProcBits | c.proc
}

// recoverSeq resumes the write sequence past every version this process
// issued before a restart (identified by the proc bits), so recovered
// writes are never reissued with stale — hence losing — versions.
func (c *Cluster) recoverSeq() {
	mask := uint64(1)<<versionProcBits - 1
	var top uint64
	for _, p := range c.peers {
		p.Store().FactsEach(func(e store.Entry) {
			if e.Version&mask == c.proc && e.Version>>versionProcBits > top {
				top = e.Version >> versionProcBits
			}
		})
	}
	c.seq.Store(top)
}

// --- Data ingestion ---------------------------------------------------------

// ingest is the one write path every Cluster write goes through. It
// writes ts at one fresh version — as tombstones when del is set, else
// with their q-gram postings when the similarity index is on — each
// triple as one acked pgrid Write issued from a live hosted peer: the
// first live one at or after index first, or, with spread set, the
// live peers round-robin from there (a dead origin would apply locally
// and never replicate). The writes are all in flight before ingest
// waits on any of them, so a batch's round trips overlap. Each handle
// waits up to timeout; with timeout 0 ingest waits until every write
// completes or expires and then drains the overlay, replica pushes
// included, while a bounded write returns at its acks (the daemon's
// INSERT, which leaves replica push to Barrier). It reports whether
// every write was acked.
func (c *Cluster) ingest(first int, spread bool, ts []triple.Triple, del bool, timeout time.Duration) bool {
	var live []*pgrid.Peer
	for i := range c.peers {
		if p := c.peers[(first+i)%len(c.peers)]; c.tr.Alive(p.ID()) {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return len(ts) == 0
	}
	v := c.nextVersion()
	var hs []*pgrid.Handle
	for i, tr := range ts {
		p := live[0]
		if spread {
			p = live[i%len(live)]
		}
		es := make([]store.Entry, 0, len(triple.AllIndexKinds))
		for _, kind := range triple.AllIndexKinds {
			es = append(es, store.Entry{Kind: kind, Key: triple.IndexKey(tr, kind),
				Triple: tr, Version: v, Deleted: del})
		}
		hs = append(hs, p.Write(es, nil))
		if c.cfg.EnableQGram && !del {
			hs = append(hs, physical.InsertGrams(p, tr, v)...)
		}
	}
	acked := true
	for _, h := range hs {
		if !h.Wait(timeout).Complete {
			acked = false
		}
	}
	if timeout == 0 {
		c.settle()
	}
	return acked
}

// Insert stores triples from an arbitrary peer and drains the network
// (all index entries and replicas placed). Statistics update so the
// optimizer sees real attribute cardinalities.
func (c *Cluster) Insert(ts ...triple.Triple) {
	c.InsertFrom(c.anyPeer(), ts...)
}

// InsertFrom stores triples entering the system at a specific peer (the
// next live one if it is down).
func (c *Cluster) InsertFrom(peerIdx int, ts ...triple.Triple) {
	c.noteInserted(ts)
	c.ingest(peerIdx, false, ts, false, 0)
}

// InsertAcked stores one triple and blocks until every index entry
// reached a responsible peer, or fails after timeout (replica push
// stays asynchronous; Settle or a TCP host's Barrier covers it).
// Origins rotate over the hosted peers with the write clock.
func (c *Cluster) InsertAcked(tr triple.Triple, timeout time.Duration) error {
	if !c.ingest(int(c.seq.Load()), false, []triple.Triple{tr}, false, timeout) {
		return fmt.Errorf("core: insert %s/%s not acked within %v", tr.OID, tr.Attr, timeout)
	}
	c.noteInserted([]triple.Triple{tr})
	return nil
}

// noteInserted updates the optimizer statistics for freshly ingested
// triples; the stats lock orders it against concurrent optimization.
func (c *Cluster) noteInserted(ts []triple.Triple) {
	c.statsMu.Lock()
	for _, tr := range ts {
		c.stats.TriplesPerAttr[tr.Attr]++
	}
	c.stats.TotalTriples += len(ts)
	c.statsMu.Unlock()
}

// BulkInsert loads triples with the batch split round-robin across the
// live source peers, spreading the routing load over the overlay
// instead of funnelling every insert through one origin. The whole
// batch is in flight before the first ack is awaited, so its DHT round
// trips overlap instead of serializing — O(1) wall-clock per batch
// rather than O(triples).
func (c *Cluster) BulkInsert(ts ...triple.Triple) {
	if len(ts) == 0 {
		return
	}
	c.noteInserted(ts)
	c.ingest(0, true, ts, false, 0)
}

// Update overwrites fact (oid, attr) with a new value at a fresh
// version; replicas converge by gossip/anti-entropy.
func (c *Cluster) Update(tr triple.Triple) {
	c.ingest(c.anyPeer(), false, []triple.Triple{tr}, false, 0)
}

// Delete tombstones fact (oid, attr).
func (c *Cluster) Delete(oid, attr string) {
	c.ingest(c.anyPeer(), false, []triple.Triple{{OID: oid, Attr: attr}}, true, 0)
}

// AddMapping publishes an attribute correspondence into the overlay.
func (c *Cluster) AddMapping(m schema.Mapping) {
	c.Insert(m.Triples(triple.GenerateOID("map"))...)
}

// --- Querying ----------------------------------------------------------------

// Result is a completed query: bindings plus execution metrics.
type Result struct {
	Bindings []algebra.Binding
	Vars     []string
	Elapsed  time.Duration // simulated time
	// TimeToFirst is the simulated time until the first result row was
	// available from the streaming pipeline (equal to Elapsed for
	// blocking tails such as skyline and full sorts).
	TimeToFirst time.Duration
	// Messages is the overlay message traffic attributed to this query:
	// on a deterministic simnet host the simulator's sent-counter delta;
	// otherwise (concurrent simnet, TCP — overlapping queries and
	// background timers share every counter) the assembled trace's
	// totals when the query was traced, and 0 when it was not.
	Messages int
	Hops     int
	Plan     string
	// Trace is the assembled end-to-end trace of this query — the
	// synthetic query root, one span per pipeline stage, and every
	// overlay span the traced operations produced (including spans
	// shipped home by migrated plan remainders). Nil unless the cluster
	// was built with Config.Tracing.
	Trace *trace.QueryTrace
}

// Rows renders the bindings as string rows following Vars order — the
// demo UI's result tab.
func (r *Result) Rows() [][]string {
	rows := make([][]string, 0, len(r.Bindings))
	for _, b := range r.Bindings {
		row := make([]string, len(r.Vars))
		for i, v := range r.Vars {
			if val, ok := b[v]; ok {
				row[i] = val.String()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// QueryOption adjusts one query.
type QueryOption func(*queryOpts)

type queryOpts struct {
	origin   int
	pinned   bool
	mappings bool
}

// From originates the query at hosted peer peerIdx instead of a random
// one.
func From(peerIdx int) QueryOption {
	return func(o *queryOpts) { o.origin, o.pinned = peerIdx, true }
}

// WithMappings answers the query over heterogeneous schemas — the
// paper's "automatically by the system" path: the correspondence
// triples are retrieved from the overlay first, then every rewriting of
// the query runs and the results are united. Its tail clauses apply to
// the union, so the stream is blocking, like a skyline: rows appear
// once the union is complete.
func WithMappings() QueryOption {
	return func(o *queryOpts) { o.mappings = true }
}

// Query parses VQL and runs it to completion: it opens the query's
// stream, waits for the end, closes it and returns its Result.
func (c *Cluster) Query(src string, opts ...QueryOption) (*Result, error) {
	st, err := c.QueryStream(context.Background(), src, opts...)
	if err != nil {
		return nil, err
	}
	st.drain()
	return st.Result(), nil
}

// QueryFrom is Query(src, From(peerIdx)).
func (c *Cluster) QueryFrom(peerIdx int, src string) (*Result, error) {
	return c.Query(src, From(peerIdx))
}

// QueryStream parses VQL and opens it as a pull stream over its
// results, from a random hosted peer unless From says otherwise.
// Canceling ctx terminates the query early — pending overlay
// operations are released (a paged scan pulls no further page),
// migrated plan remainders are chased down — and the stream ends with
// the rows produced so far. The caller must exhaust or Close it.
func (c *Cluster) QueryStream(ctx context.Context, src string, opts ...QueryOption) (*Stream, error) {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	if !o.pinned {
		o.origin = c.anyPeer()
	}
	q, err := vql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	if o.mappings {
		return c.openMapped(ctx, o.origin, q)
	}
	return c.open(ctx, o.origin, q)
}

// open is where every query starts: it compiles q and opens its
// pipeline at the origin peer. The stream's finish step builds the
// Result.
func (c *Cluster) open(ctx context.Context, origin int, q *vql.Query) (*Stream, error) {
	plan, err := c.compile(q)
	if err != nil {
		return nil, err
	}
	eng := c.engines[origin%len(c.engines)]
	st := &Stream{Vars: resultVars(q), c: c, plan: plan}
	st.before, st.counted = c.sent()
	st.start = time.Now()
	st.cur = eng.Open(ctx, plan)
	return st, nil
}

// compile parses nothing — it lowers and cost-optimizes a parsed query
// under the statistics lock, after refreshing the observed routing-
// cache hit rate and probe-retry rate so probe pricing tracks how warm
// the caches really are and how churned the overlay is.
func (c *Cluster) compile(q *vql.Query) (*physical.Plan, error) {
	plan, err := physical.CompileQuery(q)
	if err != nil {
		return nil, err
	}
	rate, retries, rtt, pressure := c.routeCacheRates()
	// Store the refreshed rates under the brief write lock, then
	// optimize under the read lock so concurrent compilations still
	// run in parallel.
	c.statsMu.Lock()
	c.stats.CacheHitRate = rate
	c.stats.RetryRate = retries
	c.stats.ProbeRTT = rtt
	c.stats.Pressure = pressure
	c.statsMu.Unlock()
	c.statsMu.RLock()
	c.opt.Optimize(plan)
	c.statsMu.RUnlock()
	return plan, nil
}

// routeCacheRates aggregates the peers' routing-cache counters into
// the fraction of probes that went direct (the cost model's
// CacheHitRate input), the fraction of direct probe GROUPS that had
// to be hedged or retried (its RetryRate input — groups over groups,
// so batching many keys into one group cannot dilute the rate), and
// the mean of the cached per-replica latency EWMAs (its ProbeRTT
// input — direct probes priced at the round trips the replica
// choosers actually observed).
// rateWindow is how long (simulated time) a memoized rate snapshot
// stays fresh. Short enough that a warmup phase followed by a measured
// query recomputes, long enough that back-to-back compilations at
// 1024 peers pay the full-peer scan once.
const rateWindow = 5 * time.Millisecond

func (c *Cluster) routeCacheRates() (hitRate, retryRate float64, probeRTT time.Duration, pressure float64) {
	now := c.tr.Now()
	c.ratesMu.Lock()
	if c.ratesOK && now >= c.ratesAt && now-c.ratesAt < rateWindow {
		hitRate, retryRate, probeRTT, pressure = c.hitRate, c.retryRate, c.probeRTT, c.pressure
		c.ratesMu.Unlock()
		return
	}
	c.ratesMu.Unlock()
	hitRate, retryRate, probeRTT, pressure = c.scanCacheRates()
	c.ratesMu.Lock()
	c.ratesOK, c.ratesAt = true, now
	c.hitRate, c.retryRate, c.probeRTT, c.pressure = hitRate, retryRate, probeRTT, pressure
	c.ratesMu.Unlock()
	return
}

// scanCacheRates does the actual O(peers) counter aggregation.
func (c *Cluster) scanCacheRates() (hitRate, retryRate float64, probeRTT time.Duration, pressure float64) {
	hits, misses, groups, retries := 0, 0, 0, 0
	bulkSends, stalls := 0, 0
	var rttSum time.Duration
	rttN := 0
	for _, p := range c.peers {
		st := p.Stats()
		hits += st.RouteCacheHits
		misses += st.RouteCacheMisses
		groups += st.ProbeGroups
		retries += st.ProbeRetries
		bulkSends += st.FlowBulkSends
		stalls += st.FlowStalls
		sum, n := p.RouteCacheLatency()
		rttSum += sum
		rttN += n
	}
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	if groups > 0 {
		retryRate = float64(retries) / float64(groups)
		if retryRate > 1 {
			retryRate = 1
		}
	}
	if rttN > 0 {
		probeRTT = rttSum / time.Duration(rttN)
	}
	if bulkSends > 0 {
		pressure = float64(stalls) / float64(bulkSends)
		if pressure > 1 {
			pressure = 1
		}
	}
	return hitRate, retryRate, probeRTT, pressure
}

// Stream is an open query: rows arrive through Next as the distributed
// pipeline produces them, before the query has finished — the
// time-to-first-result interface. Close abandons the remainder. A
// Stream is intended for a single consuming goroutine.
type Stream struct {
	// Vars lists the result variables in projection order.
	Vars []string
	c    *Cluster
	plan *physical.Plan
	cur  *physical.Cursor
	// before, counted and start are the message counter and wall clock
	// at open, for the finish step.
	before  int
	counted bool
	start   time.Time
	// union is a mapped query's complete Result (cur is nil then); pos
	// counts the rows Next has returned from it.
	union *Result
	pos   int
	res   *Result
}

// Next returns the next result row; ok is false at end of stream. In
// deterministic mode it drives the simulated network; in concurrent
// mode it blocks until the pipeline emits.
func (s *Stream) Next() (algebra.Binding, bool) {
	if s.union != nil {
		if s.pos < len(s.union.Bindings) {
			s.pos++
			return s.union.Bindings[s.pos-1], true
		}
	} else if b, ok := s.cur.Next(); ok {
		return b, true
	}
	s.finish()
	return nil, false
}

// Close terminates the query early, canceling its remaining overlay
// operations, and ends the stream. Safe after exhaustion.
func (s *Stream) Close() {
	if s.cur != nil {
		s.cur.Close()
	}
	s.finish()
}

// Result returns the finished query's Result; nil until the stream has
// ended (exhausted or closed).
func (s *Stream) Result() *Result { return s.res }

// drain runs the stream to its end without pulling rows through Next,
// then closes it.
func (s *Stream) drain() {
	if s.cur != nil {
		s.cur.Exec().Wait()
	}
	s.Close()
}

// finish is the one step every query ends in, run once when its stream
// ends: it builds the Result and, for a traced query, adds the trace
// to the trace log and — past the slow-query threshold — logs it with
// the optimizer's estimate beside what the query actually cost.
func (s *Stream) finish() {
	if s.res != nil {
		return
	}
	if s.union != nil {
		s.res = s.union
		return
	}
	c, ex := s.c, s.cur.Exec()
	wall := time.Since(s.start)
	res := &Result{
		Bindings:    ex.Result(),
		Vars:        s.Vars,
		Elapsed:     ex.Elapsed(),
		TimeToFirst: ex.TimeToFirst(),
		Hops:        ex.MaxHops(),
		Plan:        s.plan.String(),
		Trace:       ex.Trace(),
	}
	s.res = res
	if s.counted {
		after, _ := c.sent()
		res.Messages = after - s.before
	} else if res.Trace != nil {
		res.Messages, _ = res.Trace.Totals()
	}
	if res.Trace == nil {
		return
	}
	c.tlog.Add(res.Trace)
	if c.slowQuery > 0 && wall >= c.slowQuery && c.logf != nil {
		c.statsMu.RLock()
		est := c.opt.EstimatePlan(s.plan)
		c.statsMu.RUnlock()
		msgs, bytes := res.Trace.Totals()
		c.logf("slow query (%v wall, %v simulated): estimate %.0f msgs / %v latency, observed %d msgs / %d bytes\nplan: %s\n%s",
			wall, res.Elapsed, est.Messages, est.Latency, msgs, bytes, res.Plan, res.Trace.String())
	}
}

// openMapped runs a WithMappings query at the origin peer: the
// correspondence triples first, then every rewriting of q, each through
// open and drain. The union, with q's tail applied, is the stream's
// rows; its Plan lists the variants' plans, its Hops is their maximum
// and, the tail being blocking, its TimeToFirst equals its Elapsed.
func (c *Cluster) openMapped(ctx context.Context, origin int, q *vql.Query) (*Stream, error) {
	run := func(q *vql.Query) (*Result, error) {
		st, err := c.open(ctx, origin, q)
		if err != nil {
			return nil, err
		}
		st.drain()
		return st.Result(), nil
	}
	mapRes, err := run(schema.MappingQuery())
	if err != nil {
		return nil, err
	}
	var mappings []schema.Mapping
	for _, b := range mapRes.Bindings {
		mappings = append(mappings, schema.Mapping{
			From: b["f"].Str, To: b["t"].Str,
		})
	}
	closure := schema.NewClosure(mappings)
	// Ranking, aggregation, ordering, limiting and projection must
	// apply to the UNION of the variants' bindings, not per variant (a
	// union of skylines is not the skyline of the union, and a union of
	// group counts is not the count of the union) — so the variants run
	// without the tail clauses, which are applied afterwards.
	tail := physical.Tail{
		Skyline: q.Skyline,
		OrderBy: q.OrderBy,
		TopN:    q.Top,
		Limit:   q.Limit,
		Project: q.Select,
	}
	if aggNode, outs, err := algebra.AggregateClauses(q); err != nil {
		return nil, err
	} else if aggNode != nil {
		tail.GroupBy = aggNode.GroupBy
		tail.Aggs = aggNode.Items
		tail.Having = aggNode.Having
		if len(q.Select) > 0 || len(q.Aggs) > 0 {
			tail.Project = append(append([]string{}, q.Select...), outs...)
		}
	}
	stripped := *q
	stripped.Skyline = nil
	stripped.OrderBy = nil
	stripped.Limit = 0
	stripped.Top = false
	stripped.Select = nil
	stripped.Aggs = nil
	stripped.GroupBy = nil
	stripped.Having = nil
	stripped.Distinct = false
	union := &Result{Vars: resultVars(q), Messages: mapRes.Messages}
	var plans []string
	seen := map[string]bool{}
	for _, v := range schema.Rewrite(&stripped, closure) {
		r, err := run(v)
		if err != nil {
			return nil, err
		}
		union.Messages += r.Messages
		union.Elapsed = max(union.Elapsed, r.Elapsed)
		union.Hops = max(union.Hops, r.Hops)
		plans = append(plans, r.Plan)
		for _, b := range r.Bindings {
			k := bindingKey(b)
			if !seen[k] {
				seen[k] = true
				union.Bindings = append(union.Bindings, b)
			}
		}
	}
	union.Bindings = tail.Apply(union.Bindings)
	union.TimeToFirst = union.Elapsed
	union.Plan = strings.Join(plans, "\n")
	return &Stream{Vars: union.Vars, union: union}, nil
}

func bindingKey(b algebra.Binding) string {
	var vars []string
	for k := range b {
		vars = append(vars, k)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v + "=" + b[v].Lexical() + ";")
	}
	return sb.String()
}

func resultVars(q *vql.Query) []string {
	if len(q.Select) > 0 || len(q.Aggs) > 0 {
		out := append([]string{}, q.Select...)
		for _, a := range q.Aggs {
			out = append(out, a.As)
		}
		return out
	}
	return q.Vars()
}

// --- Introspection (the demo UI's inspection tabs) ---------------------------

// LocalData returns the triples stored at one peer — "inspect the
// local data".
func (c *Cluster) LocalData(peerIdx int) []triple.Triple {
	return c.peers[peerIdx%len(c.peers)].Store().All()
}

// RoutingTable renders one peer's routing table — "inspect the locally
// built routing tables".
func (c *Cluster) RoutingTable(peerIdx int) string {
	p := c.peers[peerIdx%len(c.peers)]
	var sb strings.Builder
	fmt.Fprintf(&sb, "peer %d path=%s replicas=%d\n", p.ID(), p.Path(), len(p.Replicas()))
	for l := 0; l < p.Levels(); l++ {
		fmt.Fprintf(&sb, "  level %d:", l)
		for _, r := range p.Refs(l) {
			fmt.Fprintf(&sb, " %d(%s)", r.ID, r.Path)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// StorageLoad returns per-peer live entry counts — the load-balancing
// measurements.
func (c *Cluster) StorageLoad() []int {
	out := make([]int, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.Store().Len()
	}
	return out
}

// Kill and Revive drive churn experiments (simnet host only).
func (c *Cluster) Kill(peerIdx int)   { c.net.Kill(c.peers[peerIdx%len(c.peers)].ID()) }
func (c *Cluster) Revive(peerIdx int) { c.net.Revive(c.peers[peerIdx%len(c.peers)].ID()) }

// samePathGroup returns every live peer sharing peers[idx]'s partition
// path — the replica group the membership operations act on.
func (c *Cluster) samePathGroup(idx int) []*pgrid.Peer {
	base := c.peers[idx%len(c.peers)].Path()
	var g []*pgrid.Peer
	for _, p := range c.peers {
		if p.Path().Equal(base) {
			g = append(g, p)
		}
	}
	return g
}

// JoinPeer boots a peer into the running cluster via the overlay join
// protocol: prepare (when non-nil) runs before any message flows — it
// is where a restarting peer recovers its store from its WAL directory
// — and the peer then adopts the target's partition path, routing refs
// and replica set, and pulls the partition's state by one digest round
// paced by its own window. A fresh peer pulls everything; a recovered
// one pulls only the writes it missed. The group grows by one replica;
// call SplitGroup afterwards to divide the enlarged group into two
// deeper partitions. Returns the new peer's index.
func (c *Cluster) JoinPeer(targetIdx int, prepare func(*pgrid.Peer) error) (int, error) {
	target := c.peers[targetIdx%len(c.peers)]
	p := pgrid.NewPeer(c.tr, c.pcfg)
	if prepare != nil {
		if err := prepare(p); err != nil {
			return -1, err
		}
	}
	p.Join(target.ID())
	c.settle()
	return c.addPeer(p), nil
}

// SplitGroup performs a live P-Grid split of peers[peerIdx]'s replica
// group: the group divides into the path+0 and path+1 halves, each half
// retains only its partition's entries and hands the rest to the other
// side, and stale routing-cache entries for the old partition are
// invalidated cluster-wide as queries observe the new paths. Queries
// in flight across the split stay exact (scan claims migrate and the
// coverage ledger accounts for the abandoned half).
func (c *Cluster) SplitGroup(peerIdx int) error {
	if err := pgrid.SplitGroup(c.samePathGroup(peerIdx)); err != nil {
		return err
	}
	c.settle()
	return nil
}

// MergeGroup retires peers[peerIdx]'s replica group by merging its
// partition into the sibling partition: the leavers first transfer all
// their entries to the sibling group (data phase), the sibling group
// widens its path to the common parent, and the leavers then depart.
// The sibling must be a leaf partition (exact sibling path) — merging
// into a subdivided sibling would need a cascade of merges.
func (c *Cluster) MergeGroup(peerIdx int) error {
	leavers := c.samePathGroup(peerIdx)
	base := leavers[0].Path()
	if base.Len() == 0 {
		return fmt.Errorf("core: cannot merge the root partition")
	}
	sibling := base.Prefix(base.Len() - 1).Append(1 - base.Bit(base.Len()-1))
	var sibs []*pgrid.Peer
	for _, p := range c.peers {
		if p.Path().Equal(sibling) {
			sibs = append(sibs, p)
		}
	}
	if len(sibs) == 0 {
		return fmt.Errorf("core: no leaf group at sibling partition %s", sibling)
	}
	// Data before structure: the widened group must already hold the
	// leavers' entries when routing starts sending it the merged
	// partition's queries.
	pgrid.TransferStores(leavers, sibs[0])
	c.settle()
	if err := pgrid.WidenGroup(sibs); err != nil {
		return err
	}
	for _, p := range leavers {
		c.net.Kill(p.ID())
	}
	c.settle()
	return nil
}
