package pgrid

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"unistore/internal/keys"
)

// Overlay assembly. Every overlay — balanced or data-adaptive, on the
// simulator or over TCP, one process or many — is planned by one pure
// function and instantiated by one builder:
//
//	PlanSpecs(first, n, replicas, samples, cfg, seed)  →  the full layout
//	BuildFromSpecs(net, specs, hosted, cfg)            →  this process's peers
//
// PlanSpecs is a deterministic function of its arguments: every process
// calls it with the same parameters and computes the identical layout —
// the same partition paths, the same NodeID for every peer (first +
// gi*replicas + r in path order), the same replica groups, and the same
// randomized routing references (drawn from a rand source seeded only
// by `seed`). Each process then instantiates just the peers it hosts;
// references to peers in other processes are plain {ID, Path} refs that
// the transport resolves by address. A single-process cluster hosts
// every spec.
//
// The paths come from one split rule (planPaths): starting from the
// root, the leaf holding the most sample keys splits until n leaves
// exist; ties go to the shallowest leaf, then to the leaf whose path,
// read backwards, is largest. Without samples every leaf ties, so the
// rule halves the peer count per subtree — the balanced trie the
// decentralized exchange protocol (exchange.go) converges to under
// uniform data. With samples, hot key regions get proportionally more
// partitions and per-peer storage load evens out, the effect of
// P-Grid's skew-aware load balancing (Aberer et al., VLDB 2005).

// NodeSpec is the complete placement-independent description of one
// overlay peer: identity, trie path, replica group, routing table.
type NodeSpec struct {
	ID       NodeID
	Path     keys.Key
	Replicas []Ref   // the other members of the peer's replica group
	Refs     [][]Ref // routing references per trie level
}

// PlanSpecs plans an overlay of n partitions × replicas peers: the trie
// planPaths splits for samples (nil gives the balanced trie), node IDs
// counting up from first in key order, replica groups that know each
// other (group-internal order, self excluded), and routing references
// drawn from a source seeded by seed. first lets a second overlay share
// a network with the first; a simnet caller passes the seed its network
// was built with. cfg contributes RefsPerLevel.
func PlanSpecs(first NodeID, n, replicas int, samples []keys.Key, cfg Config, seed int64) []NodeSpec {
	if n <= 0 {
		panic("pgrid: PlanSpecs needs n > 0")
	}
	if replicas <= 0 {
		replicas = 1
	}
	paths := planPaths(n, samples)
	specs := make([]NodeSpec, 0, n*replicas)
	for _, path := range paths {
		for r := 0; r < replicas; r++ {
			specs = append(specs, NodeSpec{ID: first + NodeID(len(specs)), Path: path})
		}
	}
	for gi := range paths {
		group := specs[gi*replicas : (gi+1)*replicas]
		for a := range group {
			for b := range group {
				if a != b {
					group[a].Replicas = append(group[a].Replicas, Ref{ID: group[b].ID, Path: group[b].Path})
				}
			}
		}
	}
	refsPerLevel := cfg.RefsPerLevel
	if refsPerLevel <= 0 {
		refsPerLevel = 3 // NewPeer's default
	}
	wireRefs(specs, refsPerLevel, rand.New(rand.NewSource(seed)).Intn)
	return specs
}

// BalancedSpecs is PlanSpecs for a balanced trie whose IDs start at 0,
// under the signature the wall-clock benchmark (bench/) builds with.
func BalancedSpecs(n, replicas int, cfg Config, seed int64) []NodeSpec {
	return PlanSpecs(0, n, replicas, nil, cfg, seed)
}

// planPaths returns the n leaf paths of the trie, in key order, that
// the split rule grows from samples (see the file comment). A sample
// no longer than a leaf's depth counts toward its 0 side.
func planPaths(n int, samples []keys.Key) []keys.Key {
	leaves := leafHeap{{path: keys.Empty, samples: samples}}
	for len(leaves) < n {
		l := heap.Pop(&leaves).(leaf)
		d := l.path.Len()
		var zero, one []keys.Key
		for _, k := range l.samples {
			if k.Len() > d && k.Bit(d) == 1 {
				one = append(one, k)
			} else {
				zero = append(zero, k)
			}
		}
		heap.Push(&leaves, leaf{path: l.path.Append(0), samples: zero})
		heap.Push(&leaves, leaf{path: l.path.Append(1), samples: one})
	}
	paths := make([]keys.Key, len(leaves))
	for i, l := range leaves {
		paths[i] = l.path
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Compare(paths[j]) < 0 })
	return paths
}

// leaf is a planned trie leaf and the samples under it.
type leaf struct {
	path    keys.Key
	samples []keys.Key
}

// leafHeap orders leaves by the split rule: the leaf that splits next
// is at the top.
type leafHeap []leaf

func (h leafHeap) Len() int      { return len(h) }
func (h leafHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x any)   { *h = append(*h, x.(leaf)) }
func (h *leafHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	*h = old[:len(old)-1]
	return l
}

// Less: most samples first, then the shallowest, then the path that is
// largest read backwards.
func (h leafHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if len(a.samples) != len(b.samples) {
		return len(a.samples) > len(b.samples)
	}
	if a.path.Len() != b.path.Len() {
		return a.path.Len() < b.path.Len()
	}
	for k := a.path.Len() - 1; k >= 0; k-- {
		if a.path.Bit(k) != b.path.Bit(k) {
			return a.path.Bit(k) > b.path.Bit(k)
		}
	}
	return false
}

// wireRefs builds every spec's routing table: for each level l of a
// spec's path, up to refsPerLevel distinct random references into the
// sibling subtree at l, drawn by rejection sampling in spec order. The
// exchange protocol builds the same structure pairwise; planned
// overlays use this direct form.
func wireRefs(specs []NodeSpec, refsPerLevel int, intn func(int) int) {
	// Sort specs by path string so each prefix owns a contiguous run.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return specs[order[i]].Path.String() < specs[order[j]].Path.String()
	})
	pathStrs := make([]string, len(order))
	for i, idx := range order {
		pathStrs[i] = specs[idx].Path.String()
	}
	// withPrefix returns the index range [lo, hi) of specs whose path
	// begins with prefix. The run starts at lo; binary-searching its
	// end keeps wiring N nodes at O(N log² N) rather than O(N²) at the
	// deepest levels.
	withPrefix := func(prefix string) (int, int) {
		lo := sort.SearchStrings(pathStrs, prefix)
		hi := lo + sort.Search(len(pathStrs)-lo, func(i int) bool {
			return !strings.HasPrefix(pathStrs[lo+i], prefix)
		})
		return lo, hi
	}
	for si := range specs {
		s := &specs[si]
		s.Refs = make([][]Ref, s.Path.Len())
		for l := 0; l < s.Path.Len(); l++ {
			sibling := s.Path.Prefix(l).Append(1 - s.Path.Bit(l)).String()
			lo, hi := withPrefix(sibling)
			count := hi - lo
			if count == 0 {
				continue
			}
			want := min(refsPerLevel, count)
			seen := make(map[int]bool, want)
			for len(seen) < want {
				i := lo + intn(count)
				if seen[i] {
					continue
				}
				seen[i] = true
				q := specs[order[i]]
				s.Refs[l] = append(s.Refs[l], Ref{ID: q.ID, Path: q.Path})
			}
		}
	}
}

// Reserver is the optional transport surface for pre-assigning the
// NodeIDs that subsequent AddNode calls return. Real transports
// implement it (netx); the simulator does not need to — its sequential
// allocation matches spec IDs when one process hosts every spec and
// first is the network's node count.
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
