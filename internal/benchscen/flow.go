package benchscen

import (
	"fmt"
	"sort"
	"time"

	"unistore/internal/core"
	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// The flow-control scenario: a replicated deterministic simnet where
// ONE replica is both STALE (it was dead through a write burst and
// rejoins to catch up by digest anti-entropy) and SLOW (a 10x
// per-message service-rate throttle), while the cluster keeps serving
// a mix of range reads and replicated acked writes. The claim is the
// tentpole's: the catch-up and the write fan-out are paced by the slow
// receiver's advertised credit windows, so its in-flight backlog stays
// near the configured window and its tail stall stays short, where the
// uncontrolled baseline dumps the whole delta on it at once — and the
// answers (and the converged replica state) are exactly equal either
// way. The uncontrolled baseline is the same mix under an effectively
// infinite window, which never gates a send.
const (
	// FlowPeers/FlowReplicas size the cluster (32 simnet nodes).
	FlowPeers    = 16
	FlowReplicas = 2
	// FlowBasePersons is the dataset loaded before the kill;
	// FlowMissedPersons the burst written while the victim is down (the
	// catch-up delta); FlowRoundPersons the acked write batch issued
	// while the catch-up streams.
	FlowBasePersons   = 150
	FlowMissedPersons = 300
	FlowRoundPersons  = 30
	// FlowRounds is how many mixed scan+write rounds run after the
	// throttled replica rejoins.
	FlowRounds = 2
	// FlowWindowBytes/FlowWindowMsgs are the advertised receive windows
	// the controlled variant runs with — small enough that the catch-up
	// delta spans many windows.
	FlowWindowBytes = 16 << 10
	FlowWindowMsgs  = 16
	// FlowSlowDelay is the throttled replica's per-message service time
	// (10x the constant 1ms link of the deterministic profile).
	FlowSlowDelay = 10 * time.Millisecond
)

// FlowVariant is one measured run of the slow-replica mix, under the
// scenario's small windows or an effectively infinite one.
type FlowVariant struct {
	// MaxInflightBytes is the worst per-node peak of queued bytes —
	// the backlog bound flow control exists to enforce. SlowStallMS is
	// the longest any message waited in the throttled node's service
	// queue (its tail stall).
	MaxInflightBytes int
	SlowStallMS      float64
	// FlowBulkSends/FlowStalls aggregate the peers' credit-gate
	// counters.
	FlowBulkSends int
	FlowStalls    int
	// RejoinExact reports whether the throttled rejoiner converged to
	// its live sibling's exact fact set.
	RejoinExact bool
	// Rows is the sorted final quiescent scan — the exactness surface
	// the two variants must agree on.
	Rows []string
}

// FlowRun builds the slow-replica cluster and drives the measured mix.
// Deterministic per variant (simnet, fixed seeds); the two variants
// differ only in the advertised windows: FlowWindowBytes/FlowWindowMsgs
// when controlled, else {1<<30 B, 1<<20 msgs}, the "infinite" cell of
// the flow-control equivalence matrix.
func FlowRun(controlled bool) (FlowVariant, error) {
	var res FlowVariant
	fs := wal.NewMemFS()
	winBytes, winMsgs := 1<<30, 1<<20
	if controlled {
		winBytes, winMsgs = FlowWindowBytes, FlowWindowMsgs
	}
	c := core.NewCluster(core.Config{
		Peers: FlowPeers, Replicas: FlowReplicas, Seed: 41,
		RangeShards: 4, PageSize: ScanPageSize, ProbeParallelism: 2,
		FlowWindowBytes: winBytes, FlowWindowMsgs: winMsgs,
	})
	ds := workload.Generate(workload.Options{Seed: 42, Persons: FlowBasePersons})

	// The victim is the heaviest partition's peer by PREDICTED load
	// (the WAL must attach before any write flows) and never the
	// measuring origin: the node whose catch-up delta is largest and
	// whose partition the scan pulls the most pages from.
	victimIdx, best := 1, -1
	for i, p := range c.Peers() {
		if i == 0 {
			continue
		}
		r := keys.PrefixRange(p.Path())
		n := 0
		for _, tr := range ds.Triples {
			for _, kind := range triple.AllIndexKinds {
				if r.Contains(triple.IndexKey(tr, kind)) {
					n++
				}
			}
		}
		if n > best {
			victimIdx, best = i, n
		}
	}
	victim := c.Peers()[victimIdx]
	if _, err := wal.Open("victim", victim.Store(), wal.Options{FS: fs, Sync: wal.SyncOff}); err != nil {
		return res, fmt.Errorf("benchscen: open victim wal: %w", err)
	}
	reps := victim.Replicas()
	if len(reps) == 0 {
		return res, fmt.Errorf("benchscen: victim has no replicas")
	}
	sibIdx := -1
	for i, p := range c.Peers() {
		if p.ID() == reps[0].ID {
			sibIdx = i
			break
		}
	}
	if sibIdx < 0 {
		return res, fmt.Errorf("benchscen: victim sibling not found")
	}
	sibling := c.Peers()[sibIdx]

	c.BulkInsert(ds.Triples...)
	// Warm the routing caches (and the replica sets the read path and
	// the insert fan-out gate on) from the querying peer.
	if _, err := c.QueryFrom(0, ScanQuery); err != nil {
		return res, fmt.Errorf("benchscen: flow warmup: %w", err)
	}
	net := c.Net()
	net.Settle()

	// Crash the victim through a write burst: the missed writes are the
	// delta the rejoin must stream back in.
	c.Kill(victimIdx)
	missed := workload.Generate(workload.Options{Seed: 43, Persons: FlowMissedPersons})
	c.InsertFrom(sibIdx, missed.Triples...)
	net.Settle()

	// Measured phase. The victim restarts from its WAL — already 10x
	// slower (the throttle installs before any message flows) — and the
	// delta catch-up streams into it: receiver-paced by its advertised
	// window, which the infinite variant never lets bind.
	net.ResetStats()
	idx, err := c.JoinPeer(sibIdx, func(p *pgrid.Peer) error {
		if _, werr := wal.Open("victim", p.Store(), wal.Options{FS: fs, Sync: wal.SyncOff}); werr != nil {
			return werr
		}
		net.SetServiceDelay(p.ID(), FlowSlowDelay)
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("benchscen: flow rejoin: %w", err)
	}
	rejoined := c.Peers()[idx]
	slowID := rejoined.ID()

	// Then the sustained mix with the slow member serving: each round
	// starts a full scan (its shard envelopes queue), then fires a
	// replicated acked write batch behind it.
	plan, err := physical.CompileQuery(mustParse(ScanQuery))
	if err != nil {
		return res, fmt.Errorf("benchscen: flow plan: %w", err)
	}
	for r := 0; r < FlowRounds; r++ {
		ex := c.Engine(0).Start(plan, nil)
		batch := workload.Generate(workload.Options{
			Seed: int64(45 + r), Persons: FlowRoundPersons})
		c.BulkInsertAcked(batch.Triples...)
		ex.Wait()
	}
	net.Settle()

	after := net.Stats()
	for _, v := range after.MaxInflightBytes {
		if v > res.MaxInflightBytes {
			res.MaxInflightBytes = v
		}
	}
	res.SlowStallMS = float64(after.MaxStall[slowID].Microseconds()) / 1000
	for _, p := range c.Peers() {
		st := p.Stats()
		res.FlowBulkSends += st.FlowBulkSends
		res.FlowStalls += st.FlowStalls
	}
	res.RejoinExact = sameFactSet(rejoined, sibling)

	// The exactness surface: a quiescent final scan must agree across
	// variants row for row (all rounds' writes applied everywhere).
	qr, err := c.QueryFrom(0, ScanQuery)
	if err != nil {
		return res, fmt.Errorf("benchscen: flow final scan: %w", err)
	}
	for _, row := range qr.Rows() {
		res.Rows = append(res.Rows, fmt.Sprint(row))
	}
	sort.Strings(res.Rows)
	return res, nil
}
