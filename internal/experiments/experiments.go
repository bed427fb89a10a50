// Package experiments implements the reproduction harness: one function
// per experiment (E1–E12), each returning the table the paper's claim
// corresponds to. cmd/unibench prints these tables — this package and
// that command are the record of the reproduction until ROADMAP item H
// generates an EXPERIMENTS.md from them; bench_test.go reports their
// headline numbers as benchmark metrics.
//
// Because the demo paper's evaluation is a set of quantified claims
// rather than numbered result tables, every experiment states its claim
// in the table name.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"unistore/internal/chord"
	"unistore/internal/core"
	"unistore/internal/keys"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/trace"
	"unistore/internal/triple"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

// opWait bounds each synchronous overlay operation in simulated time:
// generous enough for any experiment topology while guaranteeing
// termination under message loss.
const opWait = 5 * time.Minute

// overlay plans n balanced partitions × replicas peers whose IDs count
// from first and instantiates them on net, which was built with seed.
func overlay(net *simnet.Network, first pgrid.NodeID, n, replicas int, cfg pgrid.Config, seed int64) []*pgrid.Peer {
	specs := pgrid.PlanSpecs(first, n, replicas, nil, cfg, seed)
	peers, err := pgrid.BuildFromSpecs(net, specs, specs, cfg)
	if err != nil {
		panic(err)
	}
	return peers
}

// Scale trades experiment size for runtime; 1.0 is the full EXPERIMENTS
// configuration, benchmarks may run smaller.
type Scale float64

func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 2 {
		v = 2
	}
	return v
}

// E1TriplePlacement reproduces Fig. 2: two 3-attribute tuples yield 18
// index entries, spread over the 8-peer trie, with the origin tuples
// reproducible by a single OID lookup from any peer.
func E1TriplePlacement() *trace.Series {
	t := trace.NewSeries("E1 (Fig. 2): triple placement on 8 peers",
		"peer path", "entries", "OID", "A#v", "v")
	c := core.NewCluster(core.Config{Peers: 8, Seed: 1})
	t1 := triple.NewTuple("a12").
		Set("title", triple.S("Similarity...")).
		Set("confname", triple.S("ICDE 2006 - Workshops")).
		Set("year", triple.N(2006))
	t2 := triple.NewTuple("v34").
		Set("title", triple.S("Progressive...")).
		Set("confname", triple.S("ICDE 2005")).
		Set("year", triple.N(2005))
	c.Insert(t1.Triples()...)
	c.Insert(t2.Triples()...)
	total := 0
	for _, p := range c.Peers() {
		st := p.Store()
		o := st.LenKind(triple.ByOID)
		a := st.LenKind(triple.ByAV)
		v := st.LenKind(triple.ByVal)
		total += o + a + v
		t.Add(p.Path().String(), o+a+v, o, a, v)
	}
	t.Add("TOTAL (paper: 18)", total, "", "", "")
	// Reconstruction check: one lookup reproduces the origin tuple.
	res, err := c.Query(`SELECT ?a,?v WHERE {('a12',?a,?v)}`)
	if err != nil {
		panic(err)
	}
	t.Add(fmt.Sprintf("reconstruct a12: %d attrs", len(res.Bindings)), "", "", "", "")
	return t
}

// E2RoutingHops reproduces the "logarithmic search complexity" claim:
// average lookup hops vs. network size tracks log2(n).
func E2RoutingHops(scale Scale) *trace.Series {
	t := trace.NewSeries("E2: routing hops vs. network size (claim: ~log2 n)",
		"peers", "avg hops", "max hops", "log2(n)")
	for _, n := range []int{16, 64, 256, scale.n(1024)} {
		net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 2})
		peers := overlay(net, 0, n, 1, pgrid.DefaultConfig(), 2)
		peers[0].InsertTripleAcked(triple.T("x", "year", "2006"), 1, nil).Wait(opWait)
		key := triple.AVKey("year", triple.S("2006"))
		sum, maxHops, count := 0, 0, 0
		step := n/64 + 1
		for i := 0; i < n; i += step {
			res := peers[i].Lookup(triple.ByAV, []keys.Key{key}, nil).Wait(opWait)
			sum += res.Hops
			if res.Hops > maxHops {
				maxHops = res.Hops
			}
			count++
		}
		t.Add(n, float64(sum)/float64(count), maxHops, math.Log2(float64(n)))
	}
	return t
}

// E3QueryLatency reproduces the scalability demonstration: "even with
// up to 400 PlanetLab nodes query answer times are still only a couple
// of seconds" — a multi-pattern VQL join under PlanetLab-like delays.
func E3QueryLatency(scale Scale) *trace.Series {
	t := trace.NewSeries("E3: query latency vs. network size, PlanetLab delays (claim: couple of seconds at 400)",
		"peers", "latency", "messages", "results")
	for _, n := range []int{50, 100, 200, scale.n(400)} {
		c := core.NewCluster(core.Config{Peers: n, Seed: 3, Latency: core.LatencyPlanetLab})
		ds := workload.Generate(workload.Options{Seed: 4, Persons: 100})
		c.BulkInsert(ds.Triples...)
		res, err := c.Query(`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 40}`)
		if err != nil {
			panic(err)
		}
		t.Add(n, res.Elapsed, res.Messages, len(res.Bindings))
	}
	return t
}

// E4PlanVariants reproduces the demo's optimizer toggling: "execute
// identical queries sequentially while influencing the integrated
// optimizer ... different performance results".
func E4PlanVariants(scale Scale) *trace.Series {
	t := trace.NewSeries("E4: identical query under forced plan variants",
		"variant", "messages", "latency", "results")
	n := scale.n(64)
	query := `SELECT ?n WHERE {(?p,'email','p7@example.org') (?p,'name',?n)}`
	variants := []struct {
		name string
		opt  optimizer.Options
	}{
		{"optimizer on (auto)", optimizer.DefaultOptions()},
		{"optimizer off (compiled order)", optimizer.Options{Disabled: true}},
		{"force broadcast", optimizer.Options{Mode: optimizer.ModeFetch, ForceStrategy: physical.StratBroadcast}},
		{"force av-range", optimizer.Options{Mode: optimizer.ModeFetch, ForceStrategy: physical.StratAVRange}},
		{"force oid-lookup", optimizer.Options{Mode: optimizer.ModeFetch, ForceStrategy: physical.StratOIDLookup}},
		{"mutant ship mode", optimizer.Options{Mode: optimizer.ModeShip}},
	}
	for _, v := range variants {
		c := core.NewCluster(core.Config{Peers: n, Seed: 5, Latency: core.LatencyWAN, Optimizer: v.opt})
		ds := workload.Generate(workload.Options{Seed: 6, Persons: 60})
		c.BulkInsert(ds.Triples...)
		res, err := c.Query(query)
		if err != nil {
			panic(err)
		}
		t.Add(v.name, res.Messages, res.Elapsed, len(res.Bindings))
	}
	return t
}

// E5Similarity reproduces the q-gram index result of companion paper
// [6]: messages for edist selections via the distributed q-gram index
// vs. the naive broadcast scan, as data grows.
func E5Similarity(scale Scale) *trace.Series {
	t := trace.NewSeries("E5: similarity selection — q-gram index vs. broadcast",
		"conferences", "qgram msgs", "bcast msgs", "qgram results", "bcast results")
	// The crossover depends on the network size: broadcast costs ~2n
	// messages, the q-gram path ~|grams|·log2(n); the index wins from a
	// few dozen peers up. 256 peers is the experiment's headline point.
	n := scale.n(256)
	for _, confs := range []int{50, 200, scale.n(800)} {
		c := core.NewCluster(core.Config{Peers: n, Seed: 7, EnableQGram: true})
		var data []triple.Triple
		for i := 0; i < confs; i++ {
			s := workload.Series[i%len(workload.Series)]
			if i%3 == 0 {
				s = workload.Typo(c.Net().Rand(), s, 1)
			}
			data = append(data, triple.T(fmt.Sprintf("c%d", i), "series", s))
		}
		c.BulkInsert(data...)
		run := func(strat physical.AccessStrategy) (int, int) {
			q, err := vql.ParseQuery(`SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<2}`)
			if err != nil {
				panic(err)
			}
			plan, err := physical.CompileQuery(q)
			if err != nil {
				panic(err)
			}
			opt := optimizer.New(c.Stats(), optimizer.Options{Mode: optimizer.ModeFetch, UseQGram: true, ForceStrategy: strat})
			opt.Optimize(plan)
			before := c.Net().Stats().MessagesSent
			eng := physical.NewEngine(c.Peers()[0], opt)
			bs, _ := eng.RunPlanCtx(context.Background(), plan)
			return c.Net().Stats().MessagesSent - before, len(bs)
		}
		qm, qr := run(physical.StratQGram)
		bm, br := run(physical.StratBroadcast)
		t.Add(confs, qm, bm, qr, br)
	}
	return t
}

// E6LoadBalance reproduces P-Grid's skew handling claim ([2]): storage
// load distribution under Zipf-skewed values, peer-balanced trie vs.
// data-adaptive trie.
func E6LoadBalance(scale Scale) *trace.Series {
	t := trace.NewSeries("E6: storage load under Zipf skew (claim: balancing handles arbitrary skews)",
		"trie", "max load", "avg load", "max/avg", "gini")
	// The peer count stays fixed: a binary trie must spend one peer per
	// level of shared key prefix before it can split inside the hot
	// region, so the adaptive build needs depth headroom regardless of
	// how much data the (scaled) workload holds.
	n := 128
	data := workload.SkewedValues(8, scale.n(8000), 1.1)
	load := func(c *core.Cluster) (int, float64, float64) {
		loads := c.StorageLoad()
		maxL, sum := 0, 0
		for _, l := range loads {
			if l > maxL {
				maxL = l
			}
			sum += l
		}
		return maxL, float64(sum) / float64(len(loads)), gini(loads)
	}
	balanced := core.NewCluster(core.Config{Peers: n, Seed: 9})
	balanced.BulkInsert(data...)
	maxB, avgB, gB := load(balanced)
	t.Add("peer-balanced", maxB, avgB, float64(maxB)/avgB, gB)

	var samples []keys.Key
	for _, tr := range data {
		for _, kind := range triple.AllIndexKinds {
			samples = append(samples, triple.IndexKey(tr, kind))
		}
	}
	adaptive := core.NewCluster(core.Config{Peers: n, Seed: 9, AdaptiveSamples: samples})
	adaptive.BulkInsert(data...)
	maxA, avgA, gA := load(adaptive)
	t.Add("data-adaptive", maxA, avgA, float64(maxA)/avgA, gA)
	return t
}

func gini(loads []int) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), loads...)
	sort.Ints(sorted)
	var cum, total float64
	for _, l := range sorted {
		total += float64(l)
	}
	if total == 0 {
		return 0
	}
	var area float64
	for _, l := range sorted {
		cum += float64(l)
		area += cum
	}
	return 1 - 2*area/(float64(n)*total) + 1/float64(n)
}

// E7Skyline reproduces the ranking-operator claims: the paper's skyline
// query vs. data size, and top-N vs. full sort.
func E7Skyline(scale Scale) *trace.Series {
	t := trace.NewSeries("E7: skyline and top-N operators",
		"persons", "skyline size", "sky msgs", "sky latency", "top10 msgs", "orderby msgs")
	n := scale.n(64)
	for _, persons := range []int{100, scale.n(400)} {
		c := core.NewCluster(core.Config{Peers: n, Seed: 10, Latency: core.LatencyWAN})
		ds := workload.Generate(workload.Options{Seed: 11, Persons: persons})
		c.BulkInsert(ds.Triples...)
		sky, err := c.Query(`SELECT ?n,?age,?cnt WHERE {
			(?p,'name',?n) (?p,'age',?age) (?p,'num_of_pubs',?cnt)
		} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`)
		if err != nil {
			panic(err)
		}
		top, err := c.Query(`SELECT ?n,?cnt WHERE {(?p,'name',?n) (?p,'num_of_pubs',?cnt)} ORDER BY ?cnt DESC TOP 10`)
		if err != nil {
			panic(err)
		}
		full, err := c.Query(`SELECT ?n,?cnt WHERE {(?p,'name',?n) (?p,'num_of_pubs',?cnt)} ORDER BY ?cnt DESC`)
		if err != nil {
			panic(err)
		}
		t.Add(persons, len(sky.Bindings), sky.Messages, sky.Elapsed, top.Messages, full.Messages)
	}
	return t
}

// E8Updates reproduces the loosely consistent update claim ([4]):
// update visibility across replicas under loss, and repair of a
// returning replica by anti-entropy.
func E8Updates(scale Scale) *trace.Series {
	t := trace.NewSeries("E8: update propagation to replicas (claim: loose consistency, convergence)",
		"loss", "replicas fresh after write", "fresh after anti-entropy", "stale repaired")
	n := scale.n(16)
	for _, loss := range []float64{0, 0.1, 0.3} {
		cfg := pgrid.DefaultConfig()
		cfg.AntiEntropyEvery = int64(2 * time.Second)
		net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond),
			Seed: 12, LossRate: loss})
		peers := overlay(net, 0, n, 3, cfg, 12)
		tr := triple.T("p1", "phone", "111")
		key := triple.AVKey("phone", triple.S("222"))
		// Each write waits out its retries (not the operation deadline,
		// which would let anti-entropy run first), then settles.
		peers[0].InsertTripleAcked(tr, 1, nil).Wait(time.Second)
		net.Settle()
		peers[1].InsertTripleAcked(triple.T("p1", "phone", "222"), 2, nil).Wait(time.Second)
		net.Settle()
		fresh := func() int {
			c := 0
			for _, p := range peers {
				for _, e := range p.Store().Lookup(triple.ByAV, key) {
					if e.Version == 2 {
						c++
					}
				}
			}
			return c
		}
		after := fresh()
		net.RunFor(30 * time.Second) // anti-entropy rounds
		repaired := fresh()
		t.Add(loss, after, repaired, repaired >= after)
	}
	return t
}

// E9RangeVsChord reproduces the §2 contrast: P-Grid answers range
// queries natively, a uniform-hashing DHT must visit every node.
func E9RangeVsChord(scale Scale) *trace.Series {
	t := trace.NewSeries("E9: range query messages — P-Grid vs. Chord baseline",
		"peers", "selectivity", "pgrid msgs", "chord msgs", "pgrid results", "chord results")
	for _, n := range []int{32, scale.n(256)} {
		for _, width := range []int{5, 20} {
			// P-Grid.
			netP := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 13})
			peersP := overlay(netP, 0, n, 1, pgrid.DefaultConfig(), 13)
			for y := 1950; y < 2010; y++ {
				peersP[y%n].InsertTripleAcked(triple.TN(fmt.Sprintf("p%d", y), "year", float64(y)), 1, nil).Wait(opWait)
			}
			netP.Settle()
			lo, hi := triple.N(1990), triple.N(float64(1990+width))
			netP.ResetStats()
			resP := peersP[0].RangeQuery(triple.ByAV, triple.AVRange("year", lo, &hi), nil).Wait(opWait)
			msgsP := netP.Stats().MessagesSent
			// Chord.
			netC := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 13})
			nodes := chord.Build(netC, n)
			for y := 1950; y < 2010; y++ {
				nodes[y%n].InsertTriple(triple.TN(fmt.Sprintf("p%d", y), "year", float64(y)), 1)
			}
			netC.Run()
			netC.ResetStats()
			resC := nodes[0].RangeQuerySync(triple.ByAV, triple.AVRange("year", lo, &hi), n)
			msgsC := netC.Stats().MessagesSent
			t.Add(n, fmt.Sprintf("%d/60 years", width), msgsP, msgsC,
				len(resP.Entries), len(resC.Entries))
		}
	}
	return t
}

// E10Mappings reproduces the schema-mapping claim: queries retrieve
// data under foreign schemas once correspondence triples are applied —
// "even automatically by the system".
func E10Mappings(scale Scale) *trace.Series {
	t := trace.NewSeries("E10: recall across heterogeneous schemas via mapping triples",
		"mode", "results", "messages")
	n := scale.n(32)
	persons := scale.n(40)
	c := core.NewCluster(core.Config{Peers: n, Seed: 14})
	a, b, ms := workload.HeterogeneousPair(15, persons)
	c.BulkInsert(a.Triples...)
	c.BulkInsert(b.Triples...)
	q := `SELECT ?n WHERE {(?p,'dblp:name',?n)}`
	plain, err := c.Query(q)
	if err != nil {
		panic(err)
	}
	t.Add("without mappings", len(plain.Bindings), plain.Messages)
	for _, m := range ms {
		c.AddMapping(m)
	}
	mapped, err := c.Query(q, core.WithMappings())
	if err != nil {
		panic(err)
	}
	t.Add("with mappings (automatic)", len(mapped.Bindings), mapped.Messages)
	t.Add(fmt.Sprintf("ground truth: %d + %d persons", persons, persons), "", "")
	return t
}

// E11Merge reproduces the overlay-merge claim: two independent
// overlays interconnect in parallel; data of both becomes reachable
// from every peer.
func E11Merge(scale Scale) *trace.Series {
	t := trace.NewSeries("E11: merging two independent overlays (claim: parallel merge)",
		"sizes", "merge msgs", "reachability A-data", "reachability B-data")
	n := scale.n(16)
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 16})
	a := overlay(net, 0, n, 1, pgrid.DefaultConfig(), 16)
	b := overlay(net, pgrid.NodeID(n), n, 1, pgrid.DefaultConfig(), 16)
	a[0].InsertTripleAcked(triple.T("fromA", "name", "alice"), 1, nil).Wait(opWait)
	b[0].InsertTripleAcked(triple.T("fromB", "name", "bob"), 1, nil).Wait(opWait)
	net.Settle()
	net.ResetStats()
	pgrid.RunMerge(net, a, b, 6)
	msgs := net.Stats().MessagesSent
	all := append(append([]*pgrid.Peer(nil), a...), b...)
	okA, okB := 0, 0
	for _, p := range all {
		if r := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("alice"))}, nil).Wait(opWait); len(r.Entries) >= 1 {
			okA++
		}
		if r := p.Lookup(triple.ByAV, []keys.Key{triple.AVKey("name", triple.S("bob"))}, nil).Wait(opWait); len(r.Entries) >= 1 {
			okB++
		}
	}
	t.Add(fmt.Sprintf("%d+%d", n, n), msgs,
		fmt.Sprintf("%d/%d", okA, len(all)), fmt.Sprintf("%d/%d", okB, len(all)))
	return t
}

// E12PaperQuery runs the paper's complete §2 example end to end: the
// 8-pattern join with an edit-distance filter and a two-dimensional
// skyline.
func E12PaperQuery(scale Scale) *trace.Series {
	t := trace.NewSeries("E12: the paper's example query end-to-end",
		"peers", "results", "messages", "latency", "skyline valid")
	n := scale.n(64)
	c := core.NewCluster(core.Config{Peers: n, Seed: 17, EnableQGram: true, Latency: core.LatencyWAN})
	ds := workload.Generate(workload.Options{Seed: 18, Persons: scale.n(120), TypoRate: 0.2})
	c.BulkInsert(ds.Triples...)
	res, err := c.Query(`SELECT ?name,?age,?cnt
		WHERE {(?a,'name',?name) (?a,'age',?age)
		(?a,'num_of_pubs',?cnt)
		(?a,'has_published',?title) (?p,'title',?title)
		(?p,'published_in',?conf) (?c,'confname',?conf)
		(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
		} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`)
	if err != nil {
		panic(err)
	}
	valid := true
	for i, x := range res.Bindings {
		for j, y := range res.Bindings {
			if i != j && x["age"].Num <= y["age"].Num && x["cnt"].Num >= y["cnt"].Num &&
				(x["age"].Num < y["age"].Num || x["cnt"].Num > y["cnt"].Num) {
				valid = false
			}
		}
	}
	t.Add(n, len(res.Bindings), res.Messages, res.Elapsed, valid)
	return t
}

// All runs every experiment at the given scale, in order.
func All(scale Scale) []*trace.Series {
	return []*trace.Series{
		E1TriplePlacement(),
		E2RoutingHops(scale),
		E3QueryLatency(scale),
		E4PlanVariants(scale),
		E5Similarity(scale),
		E6LoadBalance(scale),
		E7Skyline(scale),
		E8Updates(scale),
		E9RangeVsChord(scale),
		E10Mappings(scale),
		E11Merge(scale),
		E12PaperQuery(scale),
	}
}
