package benchscen

import (
	"fmt"
	"reflect"

	"unistore/internal/core"
	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// The restart-rejoin scenario: a replicated simnet cluster with one
// WAL-backed peer that is killed, misses writes, and comes back two
// ways through the same join — onto its recovered WAL (the digest pull
// ships the delta) and onto an empty disk (it pulls every bucket). The
// claim: recovery cost is proportional to the writes MISSED, not to the
// store size, so the delta catch-up must stay cheaper than the full
// sync on both messages and bytes.
const (
	// DurabilityPeers/DurabilityReplicas size the cluster.
	DurabilityPeers    = 16
	DurabilityReplicas = 2
	// DurabilityBasePersons is the dataset loaded before the kill;
	// DurabilityMissedPersons the writes inserted while the victim is
	// down. Base ≫ missed is the regime that separates delta from full.
	DurabilityBasePersons   = 200
	DurabilityMissedPersons = 20
)

// DurabilityResult is one measured restart-rejoin run.
type DurabilityResult struct {
	// AckedAtKill is the victim's fact count when it died; Recovered is
	// what WAL recovery rebuilt — the two must match exactly.
	AckedAtKill int
	Recovered   int
	// DeltaMsgs/DeltaBytes is the network cost of restart-rejoin
	// catch-up; FullMsgs/FullBytes the empty-disk full-sync baseline.
	DeltaMsgs  int
	DeltaBytes int
	FullMsgs   int
	FullBytes  int
	// DeltaExact/FullExact report whether each rejoined peer converged
	// to the exact fact set of its live sibling.
	DeltaExact bool
	FullExact  bool
}

// DurabilityRun builds the cluster, runs both restart variants, and
// measures them. Deterministic.
func DurabilityRun() (DurabilityResult, error) {
	var res DurabilityResult
	fs := wal.NewMemFS()
	c := core.NewCluster(core.Config{
		Peers: DurabilityPeers, Replicas: DurabilityReplicas, Seed: 31,
		PageSize: ScanPageSize,
	})

	ds := workload.Generate(workload.Options{Seed: 32, Persons: DurabilityBasePersons})

	// Pick the victim by PREDICTED partition load (the WAL must attach
	// before any write flows, so the choice cannot look at stores): the
	// peer whose partition will hold the most entries — the case where
	// full sync is at its most expensive and the delta claim has
	// to earn its keep. The order-preserving value hash skews entries
	// across partitions, so some partition is always clearly loaded.
	victimIdx, best := 0, -1
	for i, p := range c.Peers() {
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

	// The victim peer logs every mutation. SyncOff is the sim policy:
	// no fsync cost in the measured run, same-machine restart semantics
	// (exactly what the perf-baseline docs promise).
	db, err := wal.Open("victim", victim.Store(), wal.Options{FS: fs, Sync: wal.SyncOff})
	if err != nil {
		return res, fmt.Errorf("benchscen: open victim wal: %w", err)
	}
	_ = db // never closed: the kill below is a crash, not a shutdown

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
	c.Net().Settle()
	res.AckedAtKill = victim.Store().FactCount()

	// kill -9: the victim drops off the network with its WAL on disk.
	c.Kill(victimIdx)
	missed := workload.Generate(workload.Options{Seed: 33, Persons: DurabilityMissedPersons})
	c.InsertFrom(sibIdx, missed.Triples...)
	c.Net().Settle()

	// Restart-rejoin: recover the WAL into a fresh peer, re-register,
	// catch up by digest delta.
	net := c.Net()
	before := net.Stats()
	idx, err := c.JoinPeer(sibIdx, func(p *pgrid.Peer) error {
		if _, err := wal.Open("victim", p.Store(), wal.Options{FS: fs, Sync: wal.SyncOff}); err != nil {
			return err
		}
		res.Recovered = p.Store().FactCount()
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("benchscen: restart-rejoin: %w", err)
	}
	net.Settle()
	after := net.Stats()
	res.DeltaMsgs = after.MessagesSent - before.MessagesSent
	res.DeltaBytes = after.BytesSent - before.BytesSent
	res.DeltaExact = sameFactSet(c.Peers()[idx], sibling)

	// Empty disk: a blank peer joins the same group and pulls
	// the whole partition.
	before = net.Stats()
	idx2, err := c.JoinPeer(sibIdx, nil)
	if err != nil {
		return res, fmt.Errorf("benchscen: full-sync rejoin: %w", err)
	}
	net.Settle()
	after = net.Stats()
	res.FullMsgs = after.MessagesSent - before.MessagesSent
	res.FullBytes = after.BytesSent - before.BytesSent
	res.FullExact = sameFactSet(c.Peers()[idx2], sibling)
	return res, nil
}

// sameFactSet reports whether two peers hold the identical versioned
// fact set (tombstones included).
func sameFactSet(a, b *pgrid.Peer) bool {
	return reflect.DeepEqual(a.Store().Facts(), b.Store().Facts())
}
