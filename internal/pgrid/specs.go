package pgrid

import (
	"fmt"
	"math/rand"

	"unistore/internal/keys"
)

// Multi-process assembly. A single-process cluster builds its overlay
// with BuildBalanced: every peer lives in one address space, so the
// builder plans the layout (planSpecs) and installs it on its own peers
// in one step. A multi-process cluster cannot do that — no process sees
// the others' peers — so assembly is split into a pure planning step
// and a local instantiation step:
//
//	BalancedSpecs(n, replicas, cfg, seed)  →  the full cluster layout
//	BuildFromSpecs(net, specs, hosted)     →  this process's peers
//
// BalancedSpecs is a deterministic function of its arguments: every
// process calls it with the same parameters and computes the identical
// layout — the same partition paths, the same NodeID for every peer
// (gi*replicas + r in path order), the same replica groups, and the
// same randomized routing references (drawn from a rand source seeded
// only by `seed`). Each process then instantiates just the peers it
// hosts; references to peers in other processes are plain {ID, Path}
// refs that the transport resolves by address.

// NodeSpec is the complete placement-independent description of one
// overlay peer: identity, trie path, replica group, routing table.
type NodeSpec struct {
	ID       NodeID
	Path     keys.Key
	Replicas []Ref   // the other members of the peer's replica group
	Refs     [][]Ref // routing references per trie level
}

// BalancedSpecs plans a balanced overlay of n partitions × replicas
// peers — the layout BuildBalanced assembles, but without a transport:
// node IDs count up from 0 and the routing references draw from a
// source seeded by `seed`, so equal arguments give equal layouts in
// every process. cfg contributes RefsPerLevel.
func BalancedSpecs(n, replicas int, cfg Config, seed int64) []NodeSpec {
	if n <= 0 {
		panic("pgrid: BalancedSpecs needs n > 0")
	}
	if replicas <= 0 {
		replicas = 1
	}
	next := NodeID(0)
	return planSpecs(balancedPaths(n), replicas, cfg.RefsPerLevel, func() NodeID {
		next++
		return next - 1
	}, rand.New(rand.NewSource(seed)).Intn)
}

// Reserver is the optional transport surface for pre-assigning the
// NodeIDs that subsequent AddNode calls return. Real transports
// implement it (netx); the simulator does not need to — its sequential
// allocation matches spec IDs when a single process hosts every spec.
type Reserver interface {
	Reserve(ids ...NodeID)
}

// BuildFromSpecs instantiates the hosted subset of a planned overlay
// on net and returns the new peers in hosted order. hosted must be
// drawn from specs; the transport must hand each peer the NodeID its
// spec names (via Reserve when supported, or by natural sequential
// assignment), and BuildFromSpecs fails loudly when it does not —
// a peer answering under the wrong address would corrupt routing
// cluster-wide.
func BuildFromSpecs(net Transport, specs []NodeSpec, hosted []NodeSpec, cfg Config) ([]*Peer, error) {
	if r, ok := net.(Reserver); ok {
		ids := make([]NodeID, len(hosted))
		for i, s := range hosted {
			ids[i] = s.ID
		}
		r.Reserve(ids...)
	}
	peers := make([]*Peer, 0, len(hosted))
	for _, s := range hosted {
		p := NewPeer(net, cfg)
		if p.id != s.ID {
			return nil, fmt.Errorf("pgrid: transport assigned node %d to spec %d (transport cannot reserve IDs?)", p.id, s.ID)
		}
		p.install(s)
		peers = append(peers, p)
	}
	return peers, nil
}

// install gives a fresh peer its planned path, replica group and
// routing table.
func (p *Peer) install(s NodeSpec) {
	p.setPath(s.Path)
	for _, ref := range s.Replicas {
		p.addReplica(ref)
	}
	for l, refs := range s.Refs {
		for _, ref := range refs {
			p.addRef(l, ref)
		}
	}
}
