package physical

import (
	"sort"

	"unistore/internal/keys"
	"unistore/internal/pgrid"
	"unistore/internal/qgram"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// This file implements the distributed q-gram similarity access path
// (companion paper [6]): string values are indexed under their padded
// q-grams in a dedicated key-space region; a similarity selection
// edist(?v, c) <= k routes one range query per gram of c, count-filters
// the collected candidate values, verifies survivors with the banded
// edit distance, and resolves the matching values with exact A#v
// lookups — touching only O(|c|) regions instead of every peer.

// InsertGrams writes the q-gram postings for a string-valued triple
// and returns the handles of those writes (none for other values), one
// per pgrid.MaxWriteEntries postings. Call alongside the triple insert
// when the similarity index is enabled; version follows the triple's
// version. Grams are written in sorted order so the message sequence
// (and thus every seeded run) is deterministic.
func InsertGrams(p *pgrid.Peer, tr triple.Triple, version uint64) []*pgrid.Handle {
	if tr.Val.Kind != triple.KindString {
		return nil
	}
	set := qgram.GramSet(tr.Val.Str, qgram.Q)
	grams := make([]string, 0, len(set))
	for g := range set {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	es := make([]store.Entry, 0, len(grams))
	for _, g := range grams {
		es = append(es, store.Entry{
			Kind:    triple.ByVal,
			Key:     triple.GramKey(tr.Attr, g, tr.Val.Str),
			Triple:  triple.GramTriple(tr.Attr, g, tr.Val.Str),
			Version: version,
		})
	}
	var hs []*pgrid.Handle
	for len(es) > 0 {
		n := min(len(es), pgrid.MaxWriteEntries)
		hs = append(hs, p.Write(es[:n], nil))
		es = es[n:]
	}
	return hs
}

// classifyQGram configures a stage resolving a pattern (?s, attr, ?v)
// under a similarity predicate on ?v via the distributed q-gram index:
// phase one showers one gram-posting range query per gram of the
// target (all must complete before the count filter can prune), phase
// two streams one A#v verification probe per surviving candidate.
func (s *stage) classifyQGram() {
	pat := s.st.Pat
	sim, ok := simFor(s.st)
	if !ok || pat.A.IsVar() {
		// No usable predicate: degrade to the attribute range scan.
		s.mode = modeScan
		s.scanKind = triple.ByAV
		s.scanRange = triple.AVPrefixRange(pat.A.Val.Str)
		return
	}
	grams := qgram.GramSet(sim.Target, qgram.Q)
	if len(grams) == 0 {
		s.mode = modeEmpty
		return
	}
	s.mode = modeQGram
	s.sim = sim
	s.gramList = make([]string, 0, len(grams))
	for g := range grams {
		s.gramList = append(s.gramList, g)
	}
	sort.Strings(s.gramList)
	// The predicate is verified exactly during phase two; drop it from
	// the predicates emit re-checks (it would pass anyway).
	s.predStep.Sims = dropSim(s.st.Sims, pat.V.Var)
}

// openQGram issues the gram-posting range queries.
func (s *stage) openQGram() {
	attr := s.st.Pat.A.Val.Str
	s.gramResults = make([][]store.Entry, len(s.gramList))
	s.gramsLeft = len(s.gramList)
	for i, g := range s.gramList {
		slot, gram := i, g
		s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
			return s.ex.eng.peer.RangeQuery(triple.ByVal, triple.GramRange(attr, gram), cb, s.opts()...)
		}, func(res pgrid.OpResult) { s.onGram(slot, res.Entries) })
	}
}

// onGram collects one gram's postings; the last one triggers the
// count-filter + verification phase.
func (s *stage) onGram(slot int, entries []store.Entry) {
	s.gramResults[slot] = entries
	s.gramsLeft--
	if s.gramsLeft > 0 {
		return
	}
	// Count, per candidate value, how many of the target's grams it
	// shares (each slot contributes each value at most once).
	counts := make(map[string]int)
	for _, entries := range s.gramResults {
		seen := map[string]bool{}
		for _, e := range entries {
			val := e.Triple.Val.Str
			if !seen[val] {
				seen[val] = true
				counts[val]++
			}
		}
	}
	s.gramResults = nil
	s.qgramVerify(counts)
}

// qgramVerify count-filters the candidates, verifies exactly, then
// streams A#v probes for the surviving values.
func (s *stage) qgramVerify(counts map[string]int) {
	sim := s.sim
	var candidates []string
	for val, shared := range counts {
		thr := qgram.CountFilterThreshold(len(sim.Target), len(val), qgram.Q, sim.MaxDist)
		if thr > 0 && shared < thr {
			// The distinct-gram count underestimates the true shared
			// multiplicity only when grams repeat; re-check exactly
			// before pruning (soundness over speed).
			if qgram.SharedGrams(sim.Target, val, qgram.Q) < thr {
				continue
			}
		}
		if qgram.WithinDistance(sim.Target, val, sim.MaxDist) {
			candidates = append(candidates, val)
		}
	}
	sort.Strings(candidates)
	s.verified = true
	attr := s.st.Pat.A.Val.Str
	for _, val := range candidates {
		ks := []keys.Key{triple.AVKey(attr, triple.S(val))}
		s.submitOp(func(cb func(pgrid.OpResult)) *pgrid.Handle {
			return s.ex.eng.peer.Lookup(triple.ByAV, ks, cb, s.opts()...)
		}, func(res pgrid.OpResult) { s.onEntries(res.Entries) })
	}
}

// simFor extracts the similarity predicate applicable to the step's
// value variable.
func simFor(st Step) (SimSpec, bool) {
	v := st.Pat.V
	if !v.IsVar() {
		return SimSpec{}, false
	}
	for _, s := range st.Sims {
		if s.Var == v.Var {
			return s, true
		}
	}
	return SimSpec{}, false
}

// dropSim removes the (verified) similarity predicate on var v.
func dropSim(sims []SimSpec, v string) []SimSpec {
	out := make([]SimSpec, 0, len(sims))
	for _, s := range sims {
		if s.Var != v {
			out = append(out, s)
		}
	}
	return out
}
