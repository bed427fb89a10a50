package core

import (
	"fmt"
	"path/filepath"
	"time"

	"unistore/internal/netx"
	"unistore/internal/pgrid"
	"unistore/internal/store/wal"
	"unistore/internal/trace"
)

// NodeConfig parameterizes one process of a multi-process cluster. The
// topology fields (Partitions, Replicas, Procs, Seed) must be
// identical in every process: each daemon independently computes the
// same overlay plan (pgrid.PlanSpecs, a balanced trie with IDs from 0)
// and instantiates the slice it hosts, so no process ever has to ship
// topology to another.
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

// drainTimeout bounds how long a TCP host's Close, and the settle
// after an ingest call, wait for local quiescence.
const drainTimeout = 10 * time.Second

// NewNode builds a TCP host: it plans the cluster-wide overlay,
// instantiates this process's share of the peers on a freshly bound
// netx transport, recovers their WALs, and starts the transport
// (announcing to the seeds). It returns once the local share is up;
// WaitReady blocks until the whole cluster's routes are known.
func NewNode(cfg NodeConfig) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ccfg := Config{
		Peers: cfg.Partitions, Replicas: cfg.Replicas, Seed: cfg.Seed,
		PageSize: cfg.PageSize, Tracing: cfg.Tracing,
	}.withDefaults()
	pcfg := ccfg.pgridConfig()
	specs := pgrid.PlanSpecs(0, cfg.Partitions, cfg.Replicas, nil, pcfg, cfg.Seed)
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
	c := newCluster(ccfg, pcfg, tr, peers, cfg.ProcIndex)
	c.tcp, c.procs, c.size, c.dbs = tr, cfg.Procs, len(specs), dbs
	c.logf, c.slowQuery = cfg.Logf, cfg.SlowQuery
	c.sent = func() (int, bool) { return 0, false }
	c.settle = func() { c.Barrier(drainTimeout) }
	c.close = func() error {
		c.Barrier(drainTimeout)
		err := tr.Close()
		for _, db := range dbs {
			if cerr := db.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	c.reg.OnCollect(func(r *trace.Registry) {
		st := tr.Stats()
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
		for _, db := range dbs {
			syncs += db.Syncs()
			logBytes += db.LogSize()
		}
		setCounter(r, "wal.syncs", syncs)
		r.Gauge("wal.log_bytes").Set(float64(logBytes))
	})
	tr.Start()
	return c, nil
}

// The methods below exist on a TCP host only.

// Recovery reports what each hosted peer's WAL recovery found, in
// Peers() order (nil when the node runs without a DataDir).
func (c *Cluster) Recovery() []wal.RecoveryInfo {
	var out []wal.RecoveryInfo
	for _, db := range c.dbs {
		out = append(out, db.Info())
	}
	return out
}

// Rejoin re-registers every hosted peer with its replica group after a
// restart by joining a replica hosted elsewhere: the join's digest
// round pulls only what drifted from the recovered state (cost ∝
// missed writes), and everything when the disk was empty. Fire-and-
// forget — convergence is observable via Barrier plus the stores
// themselves. Single-process clusters have nowhere to rejoin to.
func (c *Cluster) Rejoin() {
	for _, p := range c.peers {
		for _, r := range p.Replicas() {
			if int(r.ID)%c.procs != int(c.proc) {
				p.Join(r.ID)
				break
			}
		}
	}
}

// Addr returns the transport's resolved listen address — what other
// processes pass as a seed.
func (c *Cluster) Addr() string { return c.tcp.Addr() }

// Transport exposes the underlying netx transport.
func (c *Cluster) Transport() *netx.Transport { return c.tcp }

// WaitReady blocks until this process knows a route to every peer in
// the cluster (bootstrap converged) or the timeout elapses.
func (c *Cluster) WaitReady(timeout time.Duration) bool {
	return c.tcp.WaitRoutes(c.size, timeout)
}

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
func (c *Cluster) Health() NodeHealth {
	h := NodeHealth{
		Addr:        c.tcp.Addr(),
		Peers:       len(c.peers),
		ClusterSize: c.size,
		RoutesKnown: len(c.tcp.Routes()),
	}
	for i, db := range c.dbs {
		if err := db.Err(); err != nil {
			h.WALErrors = append(h.WALErrors, fmt.Sprintf("peer-%04d: %v", c.peers[i].ID(), err))
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
func (c *Cluster) Barrier(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		rest := time.Until(deadline)
		if rest <= 0 {
			return false
		}
		if !c.tcp.Flush(rest) {
			return false
		}
		pending := 0
		for _, p := range c.peers {
			pending += p.PendingOps()
		}
		if pending == 0 && c.tcp.Flush(50*time.Millisecond) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
}
