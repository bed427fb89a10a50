package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/cost"
	"unistore/internal/netx"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/store"
	"unistore/internal/store/wal"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// NodeConfig parameterizes one process of a multi-process cluster. The
// topology fields (Partitions, Replicas, Procs, Seed) must be
// identical in every process: each daemon independently computes the
// same overlay plan (pgrid.BalancedSpecs) and instantiates the slice
// it hosts, so no process ever has to ship topology to another.
type NodeConfig struct {
	// Listen is the TCP address to bind; ":0" picks a free port.
	Listen string
	// Seeds are listen addresses of already-running nodes (empty for
	// the first process).
	Seeds []string
	// Partitions is the cluster-wide number of key-space partitions.
	Partitions int
	// Replicas is the replica-group size per partition.
	Replicas int
	// Procs is the total process count; ProcIndex identifies this one
	// (0-based). Peer i is hosted by process i mod Procs, which places
	// the members of a replica group on different processes — killing
	// one process keeps every partition covered.
	Procs     int
	ProcIndex int
	// Seed drives the shared overlay plan and this process's transport
	// randomness.
	Seed int64
	// PageSize bounds range-scan response pages (0 disables paging).
	PageSize int
	// DataDir, when set, makes every hosted peer durable: each gets a
	// write-ahead log + snapshots under DataDir/peer-NNNN, recovered on
	// startup. Empty keeps the seed behavior (memory only).
	DataDir string
	// Fsync is the WAL fsync policy (wal.SyncAlways default).
	Fsync wal.SyncPolicy
	// Logf receives transport diagnostics.
	Logf func(format string, args ...any)
	// Tracing enables end-to-end query tracing on every hosted peer:
	// each Query result carries the assembled trace tree, and recent
	// trees are retained for the daemon's /trace/recent endpoint.
	Tracing bool
	// SlowQuery, when positive, logs (via Logf) the full trace tree of
	// any traced query slower than this wall-clock threshold, with the
	// optimizer's cost estimate printed next to the observed messages,
	// bytes and latency.
	SlowQuery time.Duration
}

func (c NodeConfig) withDefaults() (NodeConfig, error) {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.ProcIndex < 0 || c.ProcIndex >= c.Procs {
		return c, fmt.Errorf("core: proc index %d out of range [0,%d)", c.ProcIndex, c.Procs)
	}
	if c.ProcIndex >= 1<<versionProcBits {
		return c, fmt.Errorf("core: proc index %d exceeds version namespace (%d)", c.ProcIndex, 1<<versionProcBits)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// versionProcBits is the low-bit slice of every write version that
// carries the issuing process index: version = seq<<bits | proc.
// Versions from different processes can never collide, and within a
// process they are strictly monotone — the store's last-writer-wins
// rule stays total without any cross-process coordination.
const versionProcBits = 10

// Node is one process's share of a multi-process UniStore cluster: a
// netx transport, the overlay peers this process hosts, and a query
// engine per peer. It is the daemon-side counterpart of Cluster.
type Node struct {
	cfg     NodeConfig
	tr      *netx.Transport
	specs   []pgrid.NodeSpec
	peers   []*pgrid.Peer
	engines []*physical.Engine
	opt     *optimizer.Optimizer
	stats   *cost.Stats
	statsMu sync.RWMutex
	seq     atomic.Uint64
	dbs     []*wal.DB
	// reg mirrors peer/transport/WAL counters under stable dotted
	// names; tlog retains recent query traces for introspection.
	reg  *trace.Registry
	tlog *trace.TraceLog
}

// NewNode plans the cluster-wide overlay, instantiates this process's
// peers on a freshly bound TCP transport, and starts the transport
// (announcing to the seeds). It returns once the local half is up;
// WaitReady blocks until the whole cluster's routes are known.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pcfg := pgrid.DefaultConfig()
	pcfg.PageSize = cfg.PageSize
	pcfg.Tracing = cfg.Tracing
	specs := pgrid.BalancedSpecs(cfg.Partitions, cfg.Replicas, pcfg, cfg.Seed)
	var hosted []pgrid.NodeSpec
	for _, s := range specs {
		if int(s.ID)%cfg.Procs == cfg.ProcIndex {
			hosted = append(hosted, s)
		}
	}
	if len(hosted) == 0 {
		return nil, fmt.Errorf("core: process %d/%d hosts no peers (%d total)", cfg.ProcIndex, cfg.Procs, len(specs))
	}
	tr, err := netx.New(netx.Config{
		Listen: cfg.Listen,
		Seeds:  cfg.Seeds,
		Seed:   cfg.Seed + int64(cfg.ProcIndex)*7919,
		Logf:   cfg.Logf,
	}, pgrid.WireCodec{})
	if err != nil {
		return nil, err
	}
	peers, err := pgrid.BuildFromSpecs(tr, specs, hosted, pcfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	var dbs []*wal.DB
	if cfg.DataDir != "" {
		// Recovery runs before the transport starts: each peer's store
		// is rebuilt from its snapshot + log while no message can race
		// it, and only then does the WAL attach for log-before-apply.
		for i, p := range peers {
			dir := filepath.Join(cfg.DataDir, fmt.Sprintf("peer-%04d", hosted[i].ID))
			db, err := wal.Open(dir, p.Store(), wal.Options{Sync: cfg.Fsync})
			if err != nil {
				for _, d := range dbs {
					d.Close()
				}
				tr.Close()
				return nil, fmt.Errorf("core: recover %s: %w", dir, err)
			}
			dbs = append(dbs, db)
		}
	}
	stats := cost.DefaultStats(cfg.Partitions)
	stats.Replicas = cfg.Replicas
	stats.TotalTriples = 0
	stats.PageSize = cfg.PageSize
	n := &Node{cfg: cfg, tr: tr, specs: specs, peers: peers, stats: stats, dbs: dbs}
	n.recoverSeq()
	n.opt = optimizer.New(stats, optimizer.DefaultOptions())
	for _, p := range peers {
		n.engines = append(n.engines, physical.NewEngine(p, lockedReopt{&n.statsMu, n.opt}))
	}
	n.reg = trace.NewRegistry()
	n.tlog = trace.NewTraceLog(0)
	registerPeerMetrics(n.reg, func() []*pgrid.Peer { return n.peers })
	n.reg.OnCollect(func(r *trace.Registry) {
		st := n.tr.Stats()
		setCounter(r, "net.frames_out", st.FramesOut)
		setCounter(r, "net.frames_in", st.FramesIn)
		setCounter(r, "net.bytes_out", st.BytesOut)
		setCounter(r, "net.bytes_in", st.BytesIn)
		setCounter(r, "net.dials", st.Dials)
		setCounter(r, "net.dial_errors", st.DialErrs)
		setCounter(r, "net.drops.queue_ctrl", st.DropsQueueCtrl)
		setCounter(r, "net.drops.queue_bulk", st.DropsQueueBulk)
		setCounter(r, "net.drops.dead", st.DropsDead)
		setCounter(r, "net.drops.inbox", st.DropsInbox)
		setCounter(r, "net.bad_frames", st.BadFrames)
		var syncs, logBytes int64
		for _, db := range n.dbs {
			syncs += db.Syncs()
			logBytes += db.LogSize()
		}
		setCounter(r, "wal.syncs", syncs)
		r.Gauge("wal.log_bytes").Set(float64(logBytes))
	})
	tr.Start()
	return n, nil
}

// recoverSeq resumes the process-local version sequence past every
// version this process issued before the restart (identified by the
// proc-index bits), so recovered writes are never reissued with stale —
// hence losing — versions.
func (n *Node) recoverSeq() {
	mask := uint64(1)<<versionProcBits - 1
	var top uint64
	for _, p := range n.peers {
		p.Store().FactsEach(func(e store.Entry) {
			if e.Version&mask == uint64(n.cfg.ProcIndex) && e.Version>>versionProcBits > top {
				top = e.Version >> versionProcBits
			}
		})
	}
	if top > 0 {
		n.seq.Store(top)
	}
}

// Recovery reports what each hosted peer's WAL recovery found, in
// Peers() order (nil when the node runs without a DataDir).
func (n *Node) Recovery() []wal.RecoveryInfo {
	var out []wal.RecoveryInfo
	for _, db := range n.dbs {
		out = append(out, db.Info())
	}
	return out
}

// Rejoin re-registers every hosted peer with its replica group after a
// restart: a peer that recovered state asks for digest-delta catch-up
// (cost ∝ missed writes); an empty one falls back to full-state sync.
// Fire-and-forget — convergence is observable via Barrier plus the
// stores themselves. Single-process clusters have nowhere to rejoin to.
func (n *Node) Rejoin() {
	for _, p := range n.peers {
		for _, r := range p.Replicas() {
			if int(r.ID)%n.cfg.Procs != n.cfg.ProcIndex {
				p.Rejoin(r.ID)
				break
			}
		}
	}
}

// Addr returns the transport's resolved listen address — what other
// processes pass as a seed.
func (n *Node) Addr() string { return n.tr.Addr() }

// Peers returns the locally hosted overlay peers.
func (n *Node) Peers() []*pgrid.Peer { return n.peers }

// Transport exposes the underlying netx transport.
func (n *Node) Transport() *netx.Transport { return n.tr }

// ClusterSize returns the cluster-wide peer count.
func (n *Node) ClusterSize() int { return len(n.specs) }

// WaitReady blocks until this process knows a route to every peer in
// the cluster (bootstrap converged) or the timeout elapses.
func (n *Node) WaitReady(timeout time.Duration) bool {
	return n.tr.WaitRoutes(len(n.specs), timeout)
}

// nextVersion issues a write version unique across the cluster: the
// process-local sequence in the high bits, the process index in the
// low bits.
func (n *Node) nextVersion() uint64 {
	return n.seq.Add(1)<<versionProcBits | uint64(n.cfg.ProcIndex)
}

// Insert stores one triple through the acked write path and blocks
// until every index entry reached a responsible peer (replica push is
// asynchronous; Barrier covers it).
func (n *Node) Insert(tr triple.Triple, timeout time.Duration) error {
	p := n.peers[int(n.seq.Load())%len(n.peers)]
	h := p.InsertTripleAcked(tr, n.nextVersion(), nil)
	if res := h.Wait(timeout); !res.Complete {
		return fmt.Errorf("core: insert %s/%s not acked within %v", tr.OID, tr.Attr, timeout)
	}
	n.statsMu.Lock()
	n.stats.TriplesPerAttr[tr.Attr]++
	n.stats.TotalTriples++
	n.statsMu.Unlock()
	return nil
}

// Query parses and executes VQL from a local peer. Traced queries
// land in the node's trace log, and — past the SlowQuery threshold —
// in the slow-query log with the optimizer's estimate alongside what
// the query actually cost.
func (n *Node) Query(src string) (*Result, error) {
	q, err := vql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	plan, err := physical.CompileQuery(q)
	if err != nil {
		return nil, err
	}
	n.statsMu.RLock()
	n.opt.Optimize(plan)
	est := n.opt.EstimatePlan(plan)
	n.statsMu.RUnlock()
	eng := n.engines[0]
	start := time.Now()
	bs, ex := eng.RunPlanCtx(context.Background(), plan)
	wall := time.Since(start)
	res := newResult(q, plan, bs, ex)
	if res.Trace != nil {
		msgs, bytes := res.Trace.Totals()
		res.Messages = msgs
		n.tlog.Add(res.Trace)
		if n.cfg.SlowQuery > 0 && wall >= n.cfg.SlowQuery && n.cfg.Logf != nil {
			n.cfg.Logf("slow query (%v wall, %v simulated): estimate %.0f msgs / %v latency, observed %d msgs / %d bytes\nplan: %s\n%s",
				wall, res.Elapsed, est.Messages, est.Latency, msgs, bytes, res.Plan, res.Trace.String())
		}
	}
	return res, nil
}

// Registry returns the node's unified metrics registry (peer overlay
// counters, transport counters, WAL counters — collected at snapshot).
func (n *Node) Registry() *trace.Registry { return n.reg }

// TraceLog returns the bounded buffer of recently completed query
// traces (always non-nil; empty unless NodeConfig.Tracing).
func (n *Node) TraceLog() *trace.TraceLog { return n.tlog }

// NodeHealth is the liveness summary served by /healthz.
type NodeHealth struct {
	OK bool `json:"ok"`
	// Addr is the transport's resolved listen address.
	Addr string `json:"addr"`
	// Peers is the hosted peer count; ClusterSize the cluster-wide one;
	// RoutesKnown how many cluster peers this process can route to.
	Peers       int `json:"peers"`
	ClusterSize int `json:"clusterSize"`
	RoutesKnown int `json:"routesKnown"`
	// WALErrors lists the failure message of every hosted WAL whose log
	// is wedged (fsync or append failure); empty when durable and
	// healthy, or when running memory-only.
	WALErrors []string `json:"walErrors,omitempty"`
}

// Health reports process liveness: the transport must know a route to
// the whole cluster and every hosted WAL must be writable.
func (n *Node) Health() NodeHealth {
	h := NodeHealth{
		Addr:        n.tr.Addr(),
		Peers:       len(n.peers),
		ClusterSize: len(n.specs),
		RoutesKnown: len(n.tr.Routes()),
	}
	for i, db := range n.dbs {
		if err := db.Err(); err != nil {
			h.WALErrors = append(h.WALErrors, fmt.Sprintf("peer-%04d: %v", n.peers[i].ID(), err))
		}
	}
	h.OK = h.RoutesKnown >= h.ClusterSize && len(h.WALErrors) == 0
	return h
}

// Barrier waits until this process is quiescent: no queued transport
// frames and no pending overlay operations on any local peer. It
// reports whether quiescence was reached within the timeout. A
// cluster-wide barrier is every process's Barrier passing — the
// integration harness calls it on each daemon in turn.
func (n *Node) Barrier(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		rest := time.Until(deadline)
		if rest <= 0 {
			return false
		}
		if !n.tr.Flush(rest) {
			return false
		}
		pending := 0
		for _, p := range n.peers {
			pending += p.PendingOps()
		}
		if pending == 0 && n.tr.Flush(50*time.Millisecond) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close shuts the node down gracefully: drains pending operations (up
// to the timeout), closes the transport — which flushes queued frames,
// cancels timers, and joins every goroutine — and only then closes the
// WALs, fsyncing the tail and writing each clean-shutdown marker (no
// mutation can arrive once the transport is down).
func (n *Node) Close(timeout time.Duration) error {
	n.Barrier(timeout)
	err := n.tr.Close()
	for _, db := range n.dbs {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
