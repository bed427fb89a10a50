// Package ranking implements UniStore's ranking operators: skyline
// (block-nested-loop and sort-filter variants, plus the merge step the
// distributed operator uses) and top-N selection. The paper's flagship
// example — "a skyline of authors from the youngest to those who
// published most" — is ORDER BY SKYLINE OF ?age MIN, ?cnt MAX over the
// join result.
package ranking

import (
	"sort"
)

// Direction states whether smaller or larger coordinates are better.
type Direction bool

// Directions.
const (
	Min Direction = false // smaller is better
	Max Direction = true  // larger is better
)

// Dominates reports whether point a dominates point b under the given
// directions: a is at least as good in every coordinate and strictly
// better in at least one. Both points must have len(dirs) coordinates.
func Dominates(a, b []float64, dirs []Direction) bool {
	strictly := false
	for i, d := range dirs {
		av, bv := a[i], b[i]
		if d == Max {
			av, bv = -av, -bv
		}
		if av > bv {
			return false
		}
		if av < bv {
			strictly = true
		}
	}
	return strictly
}

// SkylineBNL computes skyline indexes with the block-nested-loop
// algorithm: every candidate is compared against the current window.
// O(n·s) comparisons with s the skyline size; no ordering requirements.
func SkylineBNL(points [][]float64, dirs []Direction) []int {
	var window []int
	for i, p := range points {
		dominated := false
		for _, j := range window {
			if Dominates(points[j], p, dirs) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		// p enters the window; evict everything it dominates.
		keep := window[:0]
		for _, j := range window {
			if !Dominates(p, points[j], dirs) {
				keep = append(keep, j)
			}
		}
		window = append(keep, i)
	}
	sort.Ints(window)
	return window
}

// SkylineSortFilter computes the same skyline by first sorting on a
// monotone score (the sum of normalized coordinates) so that no point
// can be dominated by a later one — each candidate is then only checked
// against already-accepted points. O(n log n + n·s).
func SkylineSortFilter(points [][]float64, dirs []Direction) []int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	score := func(p []float64) float64 {
		s := 0.0
		for i, d := range dirs {
			v := p[i]
			if d == Max {
				v = -v
			}
			s += v
		}
		return s
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return score(points[idx[a]]) < score(points[idx[b]])
	})
	var out []int
	for _, i := range idx {
		dominated := false
		for _, j := range out {
			if Dominates(points[j], points[i], dirs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// SkylineMerge merges two local skylines into the skyline of the union
// — the reduction step of the distributed skyline operator: each peer
// computes the skyline of its partition, the query peer merges.
// Inputs need not be skylines themselves; the result is always the
// skyline of the concatenation, with indexes into the concatenation
// (a's indexes first).
func SkylineMerge(a, b [][]float64, dirs []Direction) []int {
	all := make([][]float64, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	return SkylineBNL(all, dirs)
}

// --- Top-N ------------------------------------------------------------------

// TopN returns the indexes of the n best points under the scoring
// function (lower score = better), in ascending score order. It runs in
// O(len(points) · log n) with a bounded heap (ThresholdTopK), never
// materializing a full sort — the advantage the top-N operator has
// over ORDER BY+LIMIT.
func TopN(n int, count int, score func(i int) float64) []int {
	if n <= 0 || count <= 0 {
		return nil
	}
	tk := NewThresholdTopK(n, func(a, b int) bool { return score(a) < score(b) })
	for i := 0; i < count; i++ {
		tk.Offer(i)
	}
	return tk.Ranked()
}

// --- Streaming top-k with threshold early-out --------------------------------

// ThresholdTopK accumulates the k best rows of a stream under an
// arbitrary strict ordering ("less" means strictly better) and answers
// the threshold question of streaming top-k: once k rows are held and
// the producer can guarantee that every future row is at least as bad
// as some frontier value, no future row can displace the current
// worst, so the consumer may stop the producer early. This is the
// termination rule the streaming executor applies to LIMIT/TOP queries
// whose final access path emits rows in ranking order (the
// order-preserving hash makes a partition's range-scan pages arrive
// sorted).
//
// Ties are resolved first-come: a row equal to the current worst does
// not displace it, which reproduces the stable sort-then-truncate
// semantics of the materializing tail.
type ThresholdTopK[T any] struct {
	k    int
	less func(a, b T) bool
	// heap of the current best k with the WORST at index 0.
	items []T
}

// NewThresholdTopK creates an accumulator keeping the k best rows
// under less (less(a,b) == a is strictly better than b).
func NewThresholdTopK[T any](k int, less func(a, b T) bool) *ThresholdTopK[T] {
	return &ThresholdTopK[T]{k: k, less: less}
}

// Offer presents a row; it reports whether the row entered the current
// top-k (displacing the previous worst when full).
func (t *ThresholdTopK[T]) Offer(v T) bool {
	if t.k <= 0 {
		return false
	}
	if len(t.items) < t.k {
		t.items = append(t.items, v)
		t.up(len(t.items) - 1)
		return true
	}
	// Full: v enters only if strictly better than the current worst.
	if !t.less(v, t.items[0]) {
		return false
	}
	t.items[0] = v
	t.down(0)
	return true
}

// Full reports whether k rows are held.
func (t *ThresholdTopK[T]) Full() bool { return len(t.items) >= t.k }

// Worst returns the k-th best row held so far; ok is false while fewer
// than one row is held.
func (t *ThresholdTopK[T]) Worst() (T, bool) {
	var zero T
	if len(t.items) == 0 {
		return zero, false
	}
	return t.items[0], true
}

// Done reports whether the stream can terminate: k rows are held and
// frontier — a lower bound on every row still to come — is no better
// than the current worst. With an order-emitting producer the frontier
// is simply the last row released.
func (t *ThresholdTopK[T]) Done(frontier T) bool {
	return t.Full() && !t.less(frontier, t.items[0])
}

// Ranked returns the accumulated rows best-first. The accumulator is
// unchanged.
func (t *ThresholdTopK[T]) Ranked() []T {
	out := append([]T(nil), t.items...)
	sort.SliceStable(out, func(i, j int) bool { return t.less(out[i], out[j]) })
	return out
}

// up/down restore the max-at-root heap order ("max" = worst row).
func (t *ThresholdTopK[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		// items[i] worse than items[parent] ⇒ items[parent] is better.
		if !t.less(t.items[parent], t.items[i]) {
			break
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

func (t *ThresholdTopK[T]) down(i int) {
	n := len(t.items)
	for {
		worst := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && t.less(t.items[worst], t.items[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}
