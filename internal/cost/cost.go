// Package cost implements UniStore's cost model (companion paper [5],
// "Cost-Aware Processing of Similarity Queries in Structured Overlays"):
// per-operator message, hop and latency estimates derived from the
// overlay's guarantees (prefix routing resolves a key in ≈log₂ P hops
// for P partitions) and from data statistics. The optimizer compares
// physical alternatives with these estimates, and every peer hosting a
// mutant query plan re-evaluates them with its own view — the paper's
// adaptive query processing.
package cost

import (
	"math"
	"time"
)

// Stats is the statistics snapshot cost formulas consume. Peers
// estimate Partitions from their own trie depth (2^len(path)); data
// statistics come from probe queries or are maintained by the harness.
type Stats struct {
	// Partitions is the estimated number of key-space partitions.
	Partitions int
	// Replicas is the replica-group size per partition. The read path
	// spreads probes and page pulls over every replica
	// (power-of-two-choices), so R replicas multiply a partition's
	// effective service rate by R, which shrinks the queueing component
	// of per-partition latency on hot shards by the same factor.
	Replicas int
	// TriplesPerAttr estimates how many triples an attribute has
	// (universal-relation column cardinality).
	TriplesPerAttr map[string]int
	// DefaultAttrCount is used for attributes with no recorded count.
	DefaultAttrCount int
	// TotalTriples is the estimated corpus size.
	TotalTriples int
	// AvgLatency is the expected one-hop delay of the network.
	AvgLatency time.Duration
	// CacheHitRate is the observed fraction of probes resolved through
	// the peers' routing caches (a cache hit reaches the responsible
	// peer in one hop instead of log₂ P). The harness refreshes it from
	// aggregate peer counters; 0 prices every probe cold.
	CacheHitRate float64
	// RetryRate is the observed fraction of direct probe groups that
	// had to be hedged or retried to a sibling replica (dead or slow
	// owner). Each retry costs one extra request/response pair and
	// roughly a hedge deadline of added latency; the harness refreshes
	// it from aggregate peer counters.
	RetryRate float64
	// ProbeRTT is the observed round trip of direct (cache-hit) probes:
	// the mean of the per-replica latency EWMAs the routing caches
	// maintain. It makes cached-probe pricing latency-profile-aware —
	// a WAN overlay's direct probes cost what its links actually
	// measure, not a synthetic two-hop guess. 0 falls back to
	// 2×AvgLatency.
	ProbeRTT time.Duration
	// PageSize is the peer-side range-scan page bound in entries
	// (0 = paging off). Paged scans trade extra pull round trips on
	// exhaustive results for bounded response sizes — and for a
	// per-tuple remainder a LIMIT/top-k early-out can skip.
	PageSize int
	// Pressure is the observed flow-control stall rate: the fraction
	// of credit-gated bulk sends that had to wait for receiver credit
	// (aggregate FlowStalls / FlowBulkSends over the peers). A
	// congested replica set serves slower in exactly the way a slow
	// one does, so the serving term of range latencies inflates by
	// (1 + Pressure) — the optimizer prices a backed-up partition like
	// a distant one and steers toward plans that touch it less. The
	// harness refreshes it from aggregate peer counters; 0 prices an
	// uncongested network.
	Pressure float64
}

// DefaultStats returns a conservative snapshot for a network with the
// given partition count.
func DefaultStats(partitions int) *Stats {
	return &Stats{
		Partitions:       max(partitions, 1),
		Replicas:         1,
		TriplesPerAttr:   make(map[string]int),
		DefaultAttrCount: 1000,
		TotalTriples:     10000,
		AvgLatency:       50 * time.Millisecond,
	}
}

// AttrCount returns the estimated triple count for an attribute.
func (s *Stats) AttrCount(attr string) int {
	if c, ok := s.TriplesPerAttr[attr]; ok {
		return c
	}
	return s.DefaultAttrCount
}

// LookupHops is the expected routing distance to one key: log₂ P.
func (s *Stats) LookupHops() float64 {
	if s.Partitions <= 1 {
		return 0
	}
	return math.Log2(float64(s.Partitions))
}

// hitRate clamps the observed routing-cache hit rate to [0, 1].
func (s *Stats) hitRate() float64 {
	return math.Min(math.Max(s.CacheHitRate, 0), 1)
}

// retryRate clamps the observed probe-retry rate to [0, 1].
func (s *Stats) retryRate() float64 {
	return math.Min(math.Max(s.RetryRate, 0), 1)
}

// replicaSpread is the effective service-rate multiplier of the
// replica-aware read path: R live replicas answering probes under
// power-of-two-choices balance serve a hot partition ~R× faster than a
// single owner, so the serving component of per-partition latency
// divides by it.
func (s *Stats) replicaSpread() float64 {
	if s.Replicas <= 1 {
		return 1
	}
	return float64(s.Replicas)
}

// retryMsgs is the expected extra messages of `groups` direct probe
// groups under the observed retry rate: each retried group resends one
// request and draws one more response.
func (s *Stats) retryMsgs(groups float64) float64 {
	return s.retryRate() * 2 * groups
}

// retryLatency is the expected added latency of a (possibly) hedged
// probe: with probability RetryRate the origin waits out the hedge
// deadline (priced at two hops of average latency) before the sibling
// replica answers.
func (s *Stats) retryLatency() time.Duration {
	return time.Duration(s.retryRate() * 2 * float64(s.AvgLatency))
}

// pressureFactor is the serving-rate inflation of observed
// backpressure, clamped so a transiently saturated window (Pressure
// near 1) at most doubles the serving term.
func (s *Stats) pressureFactor() float64 {
	return 1 + math.Min(math.Max(s.Pressure, 0), 1)
}

// cachedRTT is the expected round trip of a cache-hit probe: the
// observed per-replica EWMA mean when the harness surfaced one, a
// two-hop synthetic otherwise.
func (s *Stats) cachedRTT() time.Duration {
	if s.ProbeRTT > 0 {
		return s.ProbeRTT
	}
	return s.lat(2)
}

// EffectiveLookupHops is the expected routing distance to one key
// given the routing cache: a cached probe goes direct (1 hop), a cold
// one pays the full prefix-routing descent.
func (s *Stats) EffectiveLookupHops() float64 {
	h := s.LookupHops()
	if h <= 1 {
		return h
	}
	r := s.hitRate()
	return r*1 + (1-r)*h
}

// PartitionsForFraction estimates how many partitions a key range
// covering `fraction` of an attribute's region touches. At least one
// partition always answers.
func (s *Stats) PartitionsForFraction(fraction float64) float64 {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	p := fraction * float64(s.Partitions)
	if p < 1 {
		p = 1
	}
	return p
}

// Estimate is a predicted operator cost. Messages is the network load
// measure the optimizer minimizes by default; Latency is the predicted
// wall-clock (simulated) time assuming parallel branches overlap.
//
// The streaming executor additionally splits each cost into a startup
// part (paid before the first tuple can possibly arrive — routing
// descent, q-gram fan-out) and a per-tuple remainder that a LIMIT/top-k
// early-out can avoid. StartupMessages/FirstLatency capture the startup
// part; ScaledToLimit prices the operator as the streaming executor
// will actually run it under a limit.
type Estimate struct {
	Messages float64
	// StartupMessages is the message cost paid before the first result
	// can arrive; the part of Messages early termination cannot avoid.
	StartupMessages float64
	Latency         time.Duration
	// FirstLatency is the estimated time-to-first-result.
	FirstLatency time.Duration
	// Results is the estimated number of bindings produced.
	Results float64
}

// Plus composes sequential costs: the downstream operator cannot start
// until the upstream one finishes, so the upstream's FULL cost joins
// the downstream's startup in both the message and latency floors.
func (e Estimate) Plus(o Estimate) Estimate {
	return Estimate{
		Messages:        e.Messages + o.Messages,
		StartupMessages: e.Messages + o.StartupMessages,
		Latency:         e.Latency + o.Latency,
		FirstLatency:    e.Latency + o.FirstLatency,
		Results:         o.Results, // sequential composition: downstream wins
	}
}

// ScaledToLimit reprices the operator for a streaming execution that
// stops after k results: the startup cost is paid in full, the
// remainder shrinks to the fraction of the result stream actually
// consumed. With k >= Results (or k <= 0) the estimate is unchanged.
func (e Estimate) ScaledToLimit(k int) Estimate {
	if k <= 0 || float64(k) >= e.Results {
		return e
	}
	frac := float64(k) / math.Max(e.Results, 1)
	out := e
	out.Messages = e.StartupMessages + frac*(e.Messages-e.StartupMessages)
	out.Latency = e.FirstLatency + time.Duration(frac*float64(e.Latency-e.FirstLatency))
	out.Results = float64(k)
	return out
}

// lat scales the average latency by a hop count.
func (s *Stats) lat(hops float64) time.Duration {
	return time.Duration(hops * float64(s.AvgLatency))
}

// Lookup estimates one exact-key lookup: route + direct response,
// with the routing descent shortened by the expected cache hit rate
// and the cached fraction priced at the OBSERVED direct-probe round
// trip (per-replica EWMAs) plus the expected retry overhead. A lookup
// is all startup — nothing can be skipped by stopping early.
func (s *Stats) Lookup(expectedResults float64) Estimate {
	h := s.EffectiveLookupHops()
	cold := s.LookupHops()
	r := s.hitRate()
	msgs := h + 1 + r*s.retryMsgs(1)
	lat := time.Duration((1-r)*float64(s.lat(cold+1))) +
		time.Duration(r*float64(s.cachedRTT())) +
		time.Duration(r*float64(s.retryLatency()))
	return Estimate{
		Messages:        msgs,
		StartupMessages: msgs,
		Latency:         lat,
		FirstLatency:    lat,
		Results:         expectedResults,
	}
}

// MultiLookup estimates k probes of a DHT index join. Cold probes pay
// one routed envelope plus a response each. Cache-resolved probes are
// batched: keys sharing a cached responsible peer travel in one
// multi-lookup request answered by one batched response, so the cached
// fraction costs ~2·(distinct peers touched) messages — the
// balls-in-bins expectation over the partitions — rather than 2k. The
// first probe's round trip is the startup; the rest stream and can be
// skipped under a limit.
func (s *Stats) MultiLookup(k int, expectedResults float64) Estimate {
	h := s.LookupHops()
	r := s.hitRate()
	p := float64(max(s.Partitions, 1))
	peers := p * (1 - math.Pow(1-1/p, float64(k)))
	peers = math.Min(math.Max(peers, 1), float64(k))
	cold := float64(k) * (h + 1)
	batched := 2*peers + s.retryMsgs(peers) // hedged groups resend+answer
	startup := (1-r)*(h+1) + r*2
	startupLat := time.Duration((1-r)*float64(s.lat(h+1))) +
		time.Duration(r*float64(s.cachedRTT()))
	return Estimate{
		Messages:        (1-r)*cold + r*batched,
		StartupMessages: startup,
		Latency:         startupLat + time.Duration(r*float64(s.retryLatency())),
		FirstLatency:    startupLat,
		Results:         expectedResults,
	}
}

// pagePulls estimates the extra pull round trips (request + response
// message pairs, total across partitions) a paged scan adds when the
// expected rows per partition exceed the page size. Zero when paging
// is off — the monolithic-response behaviour.
func (s *Stats) pagePulls(partitions, expectedResults float64) float64 {
	if s.PageSize <= 0 || partitions <= 0 || expectedResults <= 0 {
		return 0
	}
	perPart := expectedResults / partitions
	extra := math.Ceil(perPart/float64(s.PageSize)) - 1
	if extra < 0 {
		extra = 0
	}
	return partitions * extra
}

// Range estimates a shower range query covering `fraction` of an
// attribute region: routing to the region plus one message per covered
// partition and one response per partition — plus, with peer-side
// paging on, 2 messages per continuation pull. The descent plus the
// first partition's first page is the startup; the per-partition (and
// per-page) remainder streams and shrinks under a limit, which is
// exactly why paging keeps limit-aware pricing honest: an early-out
// skips whole pages, not just whole partitions.
//
// The replica read path shows up twice: the serving term of the
// latency divides by replicaSpread (R replicas answering page pulls
// and re-showered branches multiply a hot partition's effective
// service rate by R), and the observed retry rate adds the expected
// re-shower traffic of partitions whose server died mid-scan.
func (s *Stats) Range(fraction float64, expectedResults float64) Estimate {
	h := s.LookupHops()
	p := s.PartitionsForFraction(fraction)
	pulls := s.pagePulls(p, expectedResults)
	serve := (1 + 2*pulls/math.Max(p, 1)) * s.pressureFactor() / s.replicaSpread()
	return Estimate{
		Messages:        h + (p - 1) + p + 2*pulls + s.retryMsgs(p), // descent + fan-out + responses + pulls + re-showers
		StartupMessages: h + 1,
		Latency:         s.lat(h + math.Log2(p+1) + serve),
		FirstLatency:    s.lat(h + 1),
		Results:         expectedResults,
	}
}

// GroupShare is the default ratio of distinct groups to input rows
// used when no group-cardinality statistic exists — the System-R-style
// constant behind pushdown-vs-centralized pricing.
const GroupShare = 0.1

// AggRange prices a peer-side aggregated range scan: the same descent
// and shower fan-out as Range, but every response carries per-group
// partial states instead of rows, so the paged remainder scales with
// groups shipped — each partition ships at most min(groups, its rows)
// states, and page pulls amortize over that. Aggregation is blocking
// (no group is final before every partition answered), so the whole
// cost is startup: a streamable LIMIT discounts nothing, which is
// exactly what steers small-limit group-key orderings back to the
// centralized row stream.
func (s *Stats) AggRange(fraction, expectedRows, expectedGroups float64) Estimate {
	h := s.LookupHops()
	p := s.PartitionsForFraction(fraction)
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	perPart := expectedRows / math.Max(p, 1)
	shipped := p * math.Min(expectedGroups, math.Max(perPart, 1))
	pulls := s.pagePulls(p, shipped)
	serve := (1 + 2*pulls/math.Max(p, 1)) * s.pressureFactor() / s.replicaSpread()
	msgs := h + (p - 1) + p + 2*pulls + s.retryMsgs(p)
	lat := s.lat(h + math.Log2(p+1) + serve)
	return Estimate{
		Messages:        msgs,
		StartupMessages: msgs,
		Latency:         lat,
		FirstLatency:    lat,
		Results:         expectedGroups,
	}
}

// Broadcast estimates a full-network scan: every partition receives the
// query and responds (in pages, when paging is on).
func (s *Stats) Broadcast(expectedResults float64) Estimate {
	p := float64(s.Partitions)
	pulls := s.pagePulls(p, expectedResults)
	serve := (1 + 2*pulls/math.Max(p, 1)) * s.pressureFactor() / s.replicaSpread()
	return Estimate{
		Messages:        2*p - 1 + 2*pulls + s.retryMsgs(p),
		StartupMessages: math.Log2(p+1) + 1,
		Latency:         s.lat(math.Log2(p+1) + serve),
		FirstLatency:    s.lat(2),
		Results:         expectedResults,
	}
}

// QGramSearch estimates the q-gram access path for edist(v, c) <= k:
// one range query per gram of the target plus one verification lookup
// per expected candidate. The whole gram phase is startup — the count
// filter needs every gram's postings before the first candidate can be
// verified — which is why a LIMIT query may prefer the plain range
// scan even where the q-gram index wins on total messages.
func (s *Stats) QGramSearch(targetLen, q, k int, candidates float64) Estimate {
	grams := float64(targetLen + q - 1)
	perGram := s.Range(1.0/float64(max(s.Partitions, 1)), 0)
	total := Estimate{
		Messages: grams * perGram.Messages,
		Latency:  perGram.Latency, // grams in parallel
	}
	probe := s.MultiLookup(int(candidates)+1, candidates)
	total.StartupMessages = total.Messages + probe.StartupMessages
	total.Messages += probe.Messages
	total.FirstLatency = total.Latency + probe.FirstLatency
	total.Latency += probe.Latency
	total.Results = candidates
	return total
}

// Ship estimates migrating a mutant plan with `bindings` intermediate
// results to the next region: one routed payload carrying the state.
func (s *Stats) Ship(bindings float64) Estimate {
	h := s.LookupHops()
	return Estimate{
		Messages:        h,
		StartupMessages: h,
		Latency:         s.lat(h),
		FirstLatency:    s.lat(h),
		Results:         bindings,
	}
}

// Selectivity heuristics for the optimizer, mirroring classic System-R
// constants adapted to the triple model.
const (
	// EqSelectivity is the fraction of an attribute's triples matching
	// an equality on its value.
	EqSelectivity = 0.01
	// RangeSelectivity is the default fraction for one-sided ranges.
	RangeSelectivity = 0.3
)

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
