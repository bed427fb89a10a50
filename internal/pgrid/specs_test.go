package pgrid

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

func TestBalancedSpecsDeterministic(t *testing.T) {
	a := BalancedSpecs(8, 2, DefaultConfig(), 42)
	b := BalancedSpecs(8, 2, DefaultConfig(), 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments produced different layouts")
	}
	c := BalancedSpecs(8, 2, DefaultConfig(), 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical routing (suspicious)")
	}
}

func TestBalancedSpecsShape(t *testing.T) {
	const n, replicas = 8, 2
	specs := BalancedSpecs(n, replicas, DefaultConfig(), 7)
	if len(specs) != n*replicas {
		t.Fatalf("got %d specs, want %d", len(specs), n*replicas)
	}
	byID := make(map[NodeID]NodeSpec, len(specs))
	for i, s := range specs {
		if s.ID != NodeID(i) {
			t.Errorf("spec %d has ID %d", i, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range specs {
		// Replica group: replicas-1 others, same path, symmetric.
		if len(s.Replicas) != replicas-1 {
			t.Errorf("node %d: %d replicas", s.ID, len(s.Replicas))
		}
		for _, r := range s.Replicas {
			o := byID[r.ID]
			if o.Path.Compare(s.Path) != 0 {
				t.Errorf("node %d: replica %d has different path", s.ID, r.ID)
			}
			back := false
			for _, rr := range o.Replicas {
				if rr.ID == s.ID {
					back = true
				}
			}
			if !back {
				t.Errorf("replica link %d->%d not symmetric", s.ID, r.ID)
			}
		}
		// Routing refs: one level per path bit, targets in the sibling
		// subtree at that level.
		if len(s.Refs) != s.Path.Len() {
			t.Errorf("node %d: %d ref levels for path of %d bits", s.ID, len(s.Refs), s.Path.Len())
		}
		for l, refs := range s.Refs {
			if len(refs) == 0 {
				t.Errorf("node %d level %d: no refs", s.ID, l)
			}
			sibling := s.Path.Prefix(l).Append(1 - s.Path.Bit(l))
			for _, r := range refs {
				if !byID[r.ID].Path.HasPrefix(sibling) {
					t.Errorf("node %d level %d: ref %d outside sibling subtree %s",
						s.ID, l, r.ID, sibling)
				}
			}
		}
	}
}

// TestBuildFromSpecsMatchesSimnet instantiates a full spec layout on a
// simulated network and checks the resulting overlay is structurally
// valid and functionally equivalent to a directly built one: inserts
// route to the right partitions and queries find them.
func TestBuildFromSpecsMatchesSimnet(t *testing.T) {
	const n, replicas = 8, 2
	specs := BalancedSpecs(n, replicas, DefaultConfig(), 11)
	net := simnet.New(simnet.Config{Seed: 11})
	peers, err := BuildFromSpecs(net, specs, specs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != n*replicas {
		t.Fatalf("got %d peers", len(peers))
	}
	for i, p := range peers {
		if p.ID() != specs[i].ID {
			t.Fatalf("peer %d has ID %d", i, p.ID())
		}
		if p.Path().Compare(specs[i].Path) != 0 {
			t.Fatalf("peer %d path %s, want %s", i, p.Path(), specs[i].Path)
		}
	}
	if err := checkTrie(pathsOf(peers)); err != nil {
		t.Fatal(err)
	}
}

// halvingPaths is the recursive balanced planner planPaths replaced:
// each subtree takes half the remaining peers, the 1 side the odd one.
func halvingPaths(n int) []keys.Key {
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

// TestPlanPathsWithoutSamplesHalves: with no samples the split rule
// must give exactly the recursive halving's balanced trie.
func TestPlanPathsWithoutSamplesHalves(t *testing.T) {
	for n := 1; n <= 1100; n++ {
		got, want := planPaths(n, nil), halvingPaths(n)
		if !slices.EqualFunc(got, want, keys.Key.Equal) {
			t.Fatalf("n=%d: planPaths %v, halving %v", n, got, want)
		}
		if err := checkTrie(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestPlanPathsSplitsFullestLeaf: the leaf holding the most samples
// splits next, and a sample no longer than a leaf's depth counts on its
// 0 side.
func TestPlanPathsSplitsFullestLeaf(t *testing.T) {
	bits := func(ss ...string) []keys.Key {
		out := make([]keys.Key, len(ss))
		for i, s := range ss {
			out[i] = keys.FromBits(s)
		}
		return out
	}
	for _, c := range []struct {
		n             int
		samples, want []keys.Key
	}{
		{4, bits("0000", "0001", "0010", "1"), bits("000", "001", "01", "1")},
		{3, bits("", "", "", "1"), bits("00", "01", "1")},
	} {
		if got := planPaths(c.n, c.samples); !slices.EqualFunc(got, c.want, keys.Key.Equal) {
			t.Errorf("planPaths(%d, %v) = %v, want %v", c.n, c.samples, got, c.want)
		}
	}
}

// specDigest hashes a layout: every spec's ID, path, replica group and
// routing refs, in order.
func specDigest(specs []NodeSpec) string {
	h := sha256.New()
	for _, s := range specs {
		fmt.Fprintf(h, "%d %s |", s.ID, s.Path)
		for _, r := range s.Replicas {
			fmt.Fprintf(h, " %d", r.ID)
		}
		for l, refs := range s.Refs {
			fmt.Fprintf(h, " |%d:", l)
			for _, r := range refs {
				fmt.Fprintf(h, " %d", r.ID)
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pathDigest hashes a path list in order.
func pathDigest(paths []keys.Key) string {
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlanSpecsPinsShippedLayouts pins the layouts the daemon ships —
// the benchmark's 16 × 2 and NodeConfig's default 4 × 2, both at seed 1
// — to the digests of the builder PlanSpecs replaced, so a planner
// change cannot silently move the benchmark's routing tables.
func TestPlanSpecsPinsShippedLayouts(t *testing.T) {
	for _, c := range []struct {
		n, replicas int
		want        string
	}{
		{16, 2, "cfa745bb158c3f98"},
		{4, 2, "ce5e7e5de5dde65f"},
	} {
		if got := specDigest(PlanSpecs(0, c.n, c.replicas, nil, DefaultConfig(), 1)); got != c.want {
			t.Errorf("%d×%d layout digest %s, want %s", c.n, c.replicas, got, c.want)
		}
	}
}

// indexSamples returns the placement keys of ts under every index, the
// sample set data-adaptive clusters are planned from.
func indexSamples(ts []triple.Triple) []keys.Key {
	var out []keys.Key
	for _, tr := range ts {
		for _, kind := range triple.AllIndexKinds {
			out = append(out, triple.IndexKey(tr, kind))
		}
	}
	return out
}

// TestPlanSpecsPinsAdaptiveLayouts pins the data-adaptive tries (paths
// and whole layouts) of the index-join scenario's dataset (64 peers,
// seed 8) and of E6's Zipf-skewed values at scale 0.25 and 1 (128
// peers, seed 9) to the digests of the builder PlanSpecs replaced.
func TestPlanSpecsPinsAdaptiveLayouts(t *testing.T) {
	for _, c := range []struct {
		name          string
		ts            []triple.Triple
		n             int
		seed          int64
		paths, layout string
	}{
		{"index join", workload.Generate(workload.Options{Seed: 9, Persons: 60}).Triples, 64, 8,
			"a3485e5ba10a81a0", "da72990ea4ae5092"},
		{"E6 scale 0.25", workload.SkewedValues(8, 2000, 1.1), 128, 9,
			"3389e5fd239dcc1e", "f2f0af622597ebd7"},
		{"E6 scale 1", workload.SkewedValues(8, 8000, 1.1), 128, 9,
			"eb84da8a8a557c78", "0ae7980e4c19f6f4"},
	} {
		samples := indexSamples(c.ts)
		if got := pathDigest(planPaths(c.n, samples)); got != c.paths {
			t.Errorf("%s: path digest %s, want %s", c.name, got, c.paths)
		}
		if got := specDigest(PlanSpecs(0, c.n, 1, samples, DefaultConfig(), c.seed)); got != c.layout {
			t.Errorf("%s: layout digest %s, want %s", c.name, got, c.layout)
		}
	}
}
