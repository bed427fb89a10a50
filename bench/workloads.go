package main

// The four workloads. Each is a seeded, deterministic op stream over a
// finite pool of query texts built from the generated dataset: op i
// takes its shape class from a fixed cycle (so class shares are exact
// and count-pass traffic repeats), and its target from a Zipf(0.8)
// draw inside the class. The daemons only ever see the generated
// INSERT/QUERY lines.

import (
	"fmt"
	"math/rand"
	"sort"

	"unistore/internal/triple"
	"unistore/internal/workload"
)

const (
	// The corpus is the same on every run: --seed drives the op streams
	// (targets, overwrites, read-back sample), not where the data lives,
	// so that two seeds measure the same cluster under different traffic.
	datasetSeed  = 1
	zipfS        = 0.8
	maxPerClass  = 256 // cap on distinct targets per class (bounds the oracle's work)
	writeAttr    = "note"
	overwriteMod = 5 // every 5th write overwrites an earlier fact of the same client: 20 %
)

type workloadDef struct {
	name string
	why  string
}

var workloadDefs = []workloadDef{
	{"point_lookup", "Fixed per-query cost plus one smallest-message round trip: vql, optimizer, core, pgrid routing cache, per-message codec and netx per-frame cost dominate; store scans, agg and wal do almost nothing."},
	{"index_join", "Joins with a selective first pattern: physical's streaming joins and plan shipping, pgrid probes and replica choice, and optimizer join ordering do the work; codec and store are moderate, wal idle."},
	{"scan_agg", "Bytes-heavy: store scans, pgrid paging and flow-control windows, the codec at page-sized payloads, physical's top-k sink and agg partial merges dominate; vql and optimizer fixed costs are negligible."},
	{"mixed_rw", "Acked inserts through WAL group commit and fsync, gossip to replicas and credit windows run beside point lookups: a read gain bought at the writes' expense (or the reverse) shows here."},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.name == name {
			return true
		}
	}
	return false
}

// dataset is the generated corpus reduced to what a last-writer-wins
// store keeps: one triple per (oid, attr). Loading order then cannot
// change any answer, whichever client loads which triple.
type dataset struct {
	triples []triple.Triple
}

func generateDataset(persons int) *dataset {
	ds := workload.Generate(workload.Options{Seed: datasetSeed, Persons: persons, ZipfS: zipfS, TypoRate: 0.1})
	type fact struct{ oid, attr string }
	last := make(map[fact]int, len(ds.Triples))
	for i, tr := range ds.Triples {
		last[fact{tr.OID, tr.Attr}] = i
	}
	out := make([]triple.Triple, 0, len(last))
	for i, tr := range ds.Triples {
		if last[fact{tr.OID, tr.Attr}] == i {
			out = append(out, tr)
		}
	}
	return &dataset{triples: out}
}

func insertLine(tr triple.Triple) string {
	return "INSERT " + tr.OID + " " + tr.Attr + " " + tr.Val.String()
}

// class is one query shape with its Zipf-ranked targets.
type class struct {
	name    string
	queries []string // VQL texts, rank 0 first
}

// pool is a workload's finite query set; queries are addressed by
// index so per-op verification is a slice lookup.
type pool struct {
	texts   []string
	classOf []int // pool index → class index
	classes []class
	first   []int // class index → pool index of its rank-0 query
	cycle   []int // op i has class cycle[i % len(cycle)]
}

func newPool(classes []class, cycle []int) *pool {
	p := &pool{classes: classes, cycle: cycle}
	for ci, c := range classes {
		if len(c.queries) == 0 {
			panic("bench: class " + c.name + " has no targets at this dataset size")
		}
		p.first = append(p.first, len(p.texts))
		for _, q := range c.queries {
			p.texts = append(p.texts, q)
			p.classOf = append(p.classOf, ci)
		}
	}
	return p
}

func (p *pool) className(q int) string { return p.classes[p.classOf[q]].name }

// readStream draws pool indices: class by cycle position, target by
// Zipf rank. Two streams with equal seeds are identical.
type readStream struct {
	p     *pool
	zipfs []*workload.Zipf
	i     int
}

func newReadStream(p *pool, seed int64) *readStream {
	rng := rand.New(rand.NewSource(seed))
	s := &readStream{p: p}
	for _, c := range p.classes {
		s.zipfs = append(s.zipfs, workload.NewZipf(rng, len(c.queries), zipfS))
	}
	return s
}

func (s *readStream) next() int {
	ci := s.p.cycle[s.i%len(s.p.cycle)]
	s.i++
	return s.p.first[ci] + s.zipfs[ci].Next()
}

// writeStream is one client's acked-INSERT stream: 80 % new w-<n>
// facts, 20 % overwrites of its own earlier facts.
type writeStream struct {
	rng  *rand.Rand
	n    int // ops issued
	keys int // distinct keys created so far
}

func newWriteStream(seed int64) *writeStream {
	return &writeStream{rng: rand.New(rand.NewSource(seed))}
}

func (s *writeStream) next() (oid, val string) {
	k := s.keys
	if s.n%overwriteMod == overwriteMod-1 && s.keys > 0 {
		k = s.rng.Intn(s.keys)
	} else {
		s.keys++
	}
	val = fmt.Sprintf("v%07d", s.n)
	s.n++
	return fmt.Sprintf("w-%07d", k), val
}

func writeLine(oid, val string) string { return "INSERT " + oid + " " + writeAttr + " " + val }

func readBackQuery(oid string) string {
	return fmt.Sprintf("SELECT ?v WHERE {('%s','%s',?v)}", oid, writeAttr)
}

// --- pool construction -------------------------------------------------

// facts indexes the dataset by attribute, in dataset order.
type facts struct {
	byAttr map[string][]triple.Triple
}

func indexFacts(ds *dataset) facts {
	f := facts{byAttr: map[string][]triple.Triple{}}
	for _, tr := range ds.triples {
		f.byAttr[tr.Attr] = append(f.byAttr[tr.Attr], tr)
	}
	return f
}

func capped(qs []string) []string {
	if len(qs) > maxPerClass {
		return qs[:maxPerClass]
	}
	return qs
}

// oidClass instantiates format once per object carrying attr, in
// dataset order.
func (f facts) oidClass(name, attr, format string) class {
	var qs []string
	for _, tr := range f.byAttr[attr] {
		qs = append(qs, fmt.Sprintf(format, tr.OID))
	}
	return class{name: name, queries: capped(qs)}
}

// oidLookup: exact lookups by OID+attr over every object carrying attr.
func (f facts) oidLookup(name, attr string) class {
	return f.oidClass(name, attr, "SELECT ?v WHERE {('%s','"+attr+"',?v)}")
}

func literal(v triple.Value) string {
	if v.Kind == triple.KindNumber {
		return v.String()
	}
	return "'" + v.String() + "'"
}

// distinctValues lists attr's distinct values, most frequent first
// (ties by value order), so Zipf rank 0 is the heaviest answer.
func (f facts) distinctValues(attr string) []triple.Value {
	count := map[string]int{}
	val := map[string]triple.Value{}
	for _, tr := range f.byAttr[attr] {
		k := tr.Val.String()
		count[k]++
		val[k] = tr.Val
	}
	keys := make([]string, 0, len(count))
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if count[keys[i]] != count[keys[j]] {
			return count[keys[i]] > count[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]triple.Value, len(keys))
	for i, k := range keys {
		out[i] = val[k]
	}
	return out
}

// valueClass instantiates format once per distinct value of attr.
func (f facts) valueClass(name, attr, format string) class {
	var qs []string
	for _, v := range f.distinctValues(attr) {
		qs = append(qs, fmt.Sprintf(format, literal(v)))
	}
	return class{name: name, queries: capped(qs)}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pointLookupPool: single-pattern exact matches. Half by OID+attr over
// the three OID families, half by attr+value over six attributes.
func pointLookupPool(ds *dataset) *pool {
	f := indexFacts(ds)
	classes := []class{
		f.oidLookup("oid.person.name", "name"),
		f.valueClass("av.age", "age", "SELECT ?p WHERE {(?p,'age',%s)}"),
		f.oidLookup("oid.pub.title", "title"),
		f.valueClass("av.published_in", "published_in", "SELECT ?u WHERE {(?u,'published_in',%s)}"),
		f.oidLookup("oid.conf.confname", "confname"),
		f.valueClass("av.series", "series", "SELECT ?c WHERE {(?c,'series',%s)}"),
		f.oidLookup("oid.person.email", "email"),
		f.valueClass("av.year", "year", "SELECT ?c WHERE {(?c,'year',%s)}"),
		f.oidLookup("oid.pub.published_in", "published_in"),
		f.valueClass("av.email", "email", "SELECT ?p WHERE {(?p,'email',%s)}"),
		f.oidLookup("oid.conf.series", "series"),
		f.valueClass("av.title", "title", "SELECT ?u WHERE {(?u,'title',%s)}"),
	}
	return newPool(classes, seq(len(classes)))
}

// indexJoinPool: two- and three-pattern joins whose first pattern is
// selective. This system runs them in two ways, and the pool has both:
// a pattern joined on its subject (the star.* classes, the shapes a
// user writes first) is resolved by scanning the attribute's region and
// joining the stream locally, while a pattern joined on its value (the
// chain.* classes) is probed once per binding, the probes batched per
// partition into probe groups.
func indexJoinPool(ds *dataset) *pool {
	f := indexFacts(ds)
	classes := []class{
		f.valueClass("star3.age", "age", "SELECT ?n,?t WHERE {(?p,'age',%s) (?p,'name',?n) (?p,'has_published',?t)}"),
		f.valueClass("chain3.series", "series", "SELECT ?u WHERE {(?c,'series',%s) (?c,'confname',?cn) (?u,'published_in',?cn)}"),
		f.valueClass("star2.published_in", "published_in", "SELECT ?u,?t WHERE {(?u,'published_in',%s) (?u,'title',?t)}"),
		f.oidClass("chain2.conf", "confname", "SELECT ?u WHERE {('%s','confname',?cn) (?u,'published_in',?cn)}"),
		f.valueClass("chain3.age", "age", "SELECT ?u,?t WHERE {(?p,'age',%s) (?p,'has_published',?t) (?u,'title',?t)}"),
		f.oidClass("chain2.pub", "published_in", "SELECT ?c WHERE {('%s','published_in',?cn) (?c,'confname',?cn)}"),
	}
	return newPool(classes, seq(len(classes)))
}

// scanAggShares is the scan_agg cycle: slots per shape out of 20. The
// shares put p50 inside the range-filter class and p99 inside the
// paged-scan class.
var scanAggShares = []struct {
	name  string
	slots int
}{
	{"range_filter", 8}, // 40 %
	{"paged_scan", 4},   // 20 %
	{"topk", 3},         // 15 %
	{"groupby", 3},      // 15 %
	{"minmaxavg", 2},    // 10 %
}

func scanAggPool(ds *dataset) *pool {
	var ranges []string
	for lo := 22; lo+10 <= 70; lo += 2 {
		ranges = append(ranges, fmt.Sprintf("SELECT ?p,?a WHERE {(?p,'age',?a) FILTER ?a >= %d AND ?a < %d}", lo, lo+10))
	}
	classes := []class{
		{name: "range_filter", queries: ranges},
		{name: "paged_scan", queries: []string{
			"SELECT ?n WHERE {(?p,'name',?n)}",
			"SELECT ?e WHERE {(?p,'email',?e)}",
		}},
		{name: "topk", queries: []string{
			"SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5",
			"SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n DESC LIMIT 5",
		}},
		{name: "groupby", queries: []string{
			"SELECT ?c, count(*) AS ?n WHERE {(?u,'published_in',?c)} GROUP BY ?c",
			"SELECT ?k, count(*) AS ?n WHERE {(?p,'num_of_pubs',?k)} GROUP BY ?k",
		}},
		{name: "minmaxavg", queries: []string{
			"SELECT min(?a) AS ?lo, max(?a) AS ?hi, avg(?a) AS ?mean WHERE {(?p,'age',?a)}",
			"SELECT min(?y) AS ?lo, max(?y) AS ?hi, avg(?y) AS ?mean WHERE {(?c,'year',?y)}",
		}},
	}
	// Spread each shape's slots evenly over the 20-slot cycle, so every
	// short stretch of ops has the stated mix.
	total := 0
	for _, s := range scanAggShares {
		total += s.slots
	}
	cycle := make([]int, total)
	for i := range cycle {
		cycle[i] = -1
	}
	for ci, s := range scanAggShares {
		for k := 0; k < s.slots; k++ {
			pos := k * total / s.slots
			for cycle[pos%total] != -1 {
				pos++
			}
			cycle[pos%total] = ci
		}
	}
	return newPool(classes, cycle)
}

// buildPool returns the read pool of a workload (mixed_rw reads the
// point_lookup pool over the static preload).
func buildPool(name string, ds *dataset) *pool {
	switch name {
	case "point_lookup", "mixed_rw":
		return pointLookupPool(ds)
	case "index_join":
		return indexJoinPool(ds)
	case "scan_agg":
		return scanAggPool(ds)
	}
	panic("bench: unknown workload " + name)
}
