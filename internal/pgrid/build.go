package pgrid

import (
	"fmt"
	"sort"
	"strings"

	"unistore/internal/keys"
)

// BuildBalanced constructs a P-Grid overlay of n*replicas peers whose
// trie is balanced by peer count: every partition holds `replicas`
// peers and partitions split the key space evenly. This is the
// experiment workhorse — it produces in one step the trie that the
// decentralized exchange protocol (see exchange.go) converges to under
// uniform data, so large-scale runs skip the bootstrap phase.
func BuildBalanced(net Transport, n, replicas int, cfg Config) []*Peer {
	if n <= 0 {
		panic("pgrid: BuildBalanced needs n > 0")
	}
	if replicas <= 0 {
		replicas = 1
	}
	paths := balancedPaths(n)
	return assemble(net, paths, replicas, cfg)
}

// balancedPaths returns n trie leaf paths splitting peers evenly: the
// recursion halves the peer count per subtree, so leaf depths differ by
// at most one.
func balancedPaths(n int) []keys.Key {
	var out []keys.Key
	var rec func(prefix keys.Key, count int)
	rec = func(prefix keys.Key, count int) {
		if count == 1 {
			out = append(out, prefix)
			return
		}
		left := count / 2
		rec(prefix.Append(0), left)
		rec(prefix.Append(1), count-left)
	}
	rec(keys.Empty, n)
	return out
}

// BuildAdaptive constructs an overlay whose trie adapts to the data
// distribution, reproducing the effect of P-Grid's skew-aware load
// balancing (Aberer et al., VLDB 2005): the partition holding the most
// sample keys splits first, so hot key regions get proportionally more
// peers and per-peer storage load evens out. samples should be the
// placement keys of (a sample of) the workload.
func BuildAdaptive(net Transport, n, replicas int, samples []keys.Key, cfg Config) []*Peer {
	if n <= 0 {
		panic("pgrid: BuildAdaptive needs n > 0")
	}
	if replicas <= 0 {
		replicas = 1
	}
	type leaf struct {
		prefix  keys.Key
		samples []keys.Key
	}
	leaves := []leaf{{prefix: keys.Empty, samples: samples}}
	for len(leaves) < n {
		// Split the fullest leaf. Linear scan keeps the code simple;
		// construction is not on any measured path.
		best, bestCount := -1, -1
		for i, l := range leaves {
			if len(l.samples) > bestCount {
				best, bestCount = i, len(l.samples)
			}
		}
		l := leaves[best]
		d := l.prefix.Len()
		var zero, one []keys.Key
		for _, k := range l.samples {
			if k.Len() <= d {
				// Sample shorter than the prefix: treat as bit 0.
				zero = append(zero, k)
				continue
			}
			if k.Bit(d) == 0 {
				zero = append(zero, k)
			} else {
				one = append(one, k)
			}
		}
		leaves[best] = leaf{prefix: l.prefix.Append(0), samples: zero}
		leaves = append(leaves, leaf{prefix: l.prefix.Append(1), samples: one})
	}
	paths := make([]keys.Key, len(leaves))
	for i, l := range leaves {
		paths[i] = l.prefix
	}
	return assemble(net, paths, replicas, cfg)
}

// assemble creates peers for the given partition paths (each `replicas`
// times), plans their replica groups and routing tables with draws
// from the transport's seeded source, and installs them.
func assemble(net Transport, paths []keys.Key, replicas int, cfg Config) []*Peer {
	var peers []*Peer
	specs := planSpecs(paths, replicas, cfg.RefsPerLevel, func() NodeID {
		p := NewPeer(net, cfg)
		peers = append(peers, p)
		return p.id
	}, net.Intn)
	for i, p := range peers {
		p.install(specs[i])
	}
	return peers
}

// planSpecs lays out an overlay of the given partition paths, each held
// by `replicas` nodes. Paths sort into key order; node gi*replicas+r of
// partition gi takes the next address newID returns; replica groups
// know each other (group-internal order, self excluded); and wireRefs
// draws the routing tables from intn. BuildBalanced and BuildAdaptive
// draw from the transport, BalancedSpecs from a source seeded by its
// seed argument, so one draw source yields one layout either way.
func planSpecs(paths []keys.Key, replicas, refsPerLevel int, newID func() NodeID, intn func(int) int) []NodeSpec {
	sort.Slice(paths, func(i, j int) bool { return paths[i].Compare(paths[j]) < 0 })
	specs := make([]NodeSpec, 0, len(paths)*replicas)
	for _, path := range paths {
		for r := 0; r < replicas; r++ {
			specs = append(specs, NodeSpec{ID: newID(), Path: path})
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
	if refsPerLevel <= 0 {
		refsPerLevel = 3 // NewPeer's default
	}
	wireRefs(specs, refsPerLevel, intn)
	return specs
}

// wireRefs builds every spec's routing table: for each level l of a
// spec's path, up to refsPerLevel distinct random references into the
// sibling subtree at l, drawn by rejection sampling in spec order. The
// exchange protocol builds the same structure pairwise; experiments use
// this direct form.
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

// Partitions returns the distinct partition paths of a peer set, sorted.
func Partitions(peers []*Peer) []keys.Key {
	seen := make(map[string]keys.Key)
	for _, p := range peers {
		seen[p.path.String()] = p.path
	}
	out := make([]keys.Key, 0, len(seen))
	for _, k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CheckTrie validates the structural invariant that partitions form a
// complete prefix-free cover of the key space: no partition is a prefix
// of another, and the partition count equals leaves of a full binary
// trie (sum of 2^-depth == 1). It returns an error describing the first
// violation.
func CheckTrie(peers []*Peer) error {
	parts := Partitions(peers)
	for i := 0; i < len(parts)-1; i++ {
		if parts[i+1].HasPrefix(parts[i]) {
			return fmt.Errorf("partition %s is a prefix of %s", parts[i], parts[i+1])
		}
	}
	// Σ 2^(maxDepth - depth) must equal 2^maxDepth.
	maxDepth := 0
	for _, p := range parts {
		if p.Len() > maxDepth {
			maxDepth = p.Len()
		}
	}
	var sum, full uint64
	full = 1 << uint(maxDepth)
	for _, p := range parts {
		sum += 1 << uint(maxDepth-p.Len())
	}
	if sum != full {
		return fmt.Errorf("partitions cover %d/%d of the key space", sum, full)
	}
	return nil
}
