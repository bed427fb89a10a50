package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"unistore/internal/optimizer"
	"unistore/internal/schema"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

func smallCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c := NewCluster(cfg)
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 40, TypoRate: 0.2})
	c.Insert(ds.Triples...)
	return c
}

func TestEndToEndQuery(t *testing.T) {
	c := smallCluster(t, Config{Peers: 16, Seed: 3})
	res, err := c.Query(`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30} ORDER BY ?a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("no young persons found")
	}
	prev := -1.0
	for _, b := range res.Bindings {
		a := b["a"].Num
		if a >= 30 {
			t.Errorf("filter leaked age %v", a)
		}
		if a < prev {
			t.Errorf("ORDER BY violated: %v after %v", a, prev)
		}
		prev = a
	}
	if res.Messages <= 0 || res.Elapsed <= 0 {
		t.Errorf("metrics missing: %+v", res)
	}
	if len(res.Vars) != 2 || res.Vars[0] != "n" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestResultRows(t *testing.T) {
	c := smallCluster(t, Config{Peers: 8, Seed: 4})
	res, err := c.Query(`SELECT ?n WHERE {(?p,'name',?n)} LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 3 || len(rows[0]) != 1 || rows[0][0] == "" {
		t.Errorf("rows = %v", rows)
	}
}

func TestQueryFromEveryPeerAgrees(t *testing.T) {
	c := smallCluster(t, Config{Peers: 8, Seed: 5})
	var ref int
	for i := 0; i < c.Size(); i++ {
		res, err := c.QueryFrom(i, `SELECT ?p WHERE {(?p,'age',?a) FILTER ?a >= 40}`)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = len(res.Bindings)
			continue
		}
		if len(res.Bindings) != ref {
			t.Fatalf("peer %d sees %d results, peer 0 saw %d", i, len(res.Bindings), ref)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	c := NewCluster(Config{Peers: 8, Seed: 6})
	c.Insert(triple.T("p1", "phone", "111"))
	c.Update(triple.T("p1", "phone", "222"))
	res, err := c.Query(`SELECT ?v WHERE {('p1','phone',?v)}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 || res.Bindings[0]["v"].Str != "222" {
		t.Fatalf("after update: %v", res.Bindings)
	}
	c.Delete("p1", "phone")
	res, err = c.Query(`SELECT ?v WHERE {('p1','phone',?v)}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 0 {
		t.Fatalf("after delete: %v", res.Bindings)
	}
}

func TestSimilarityQueryEndToEnd(t *testing.T) {
	c := NewCluster(Config{Peers: 16, Seed: 7, EnableQGram: true})
	ds := workload.Generate(workload.Options{Seed: 9, Persons: 30, TypoRate: 0.4})
	c.Insert(ds.Triples...)
	res, err := c.Query(`SELECT ?sr WHERE {(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3}`)
	if err != nil {
		t.Fatal(err)
	}
	// Every returned series must be a (possibly typo'd) ICDE; the
	// ground truth map verifies.
	for _, b := range res.Bindings {
		sr := b["sr"].Str
		clean := ds.CleanSeries[sr]
		if clean != "ICDE" && clean != "ICDM" && clean != "ICDT" && clean != "CIDR" {
			// edist<3 can also legitimately match near series names;
			// just require the distance bound holds.
			t.Logf("matched %q (clean %q)", sr, clean)
		}
	}
}

func TestPaperQueryEndToEnd(t *testing.T) {
	c := smallCluster(t, Config{Peers: 32, Seed: 8, EnableQGram: true})
	res, err := c.Query(`SELECT ?n,?age,?cnt WHERE {
		(?a,'name',?n) (?a,'age',?age) (?a,'num_of_pubs',?cnt)
		(?a,'has_published',?title) (?p,'title',?title)
		(?p,'published_in',?conf) (?c,'confname',?conf)
		(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
	} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`)
	if err != nil {
		t.Fatal(err)
	}
	// Skyline invariant: no result dominates another.
	for i, a := range res.Bindings {
		for j, b := range res.Bindings {
			if i == j {
				continue
			}
			if a["age"].Num <= b["age"].Num && a["cnt"].Num >= b["cnt"].Num &&
				(a["age"].Num < b["age"].Num || a["cnt"].Num > b["cnt"].Num) {
				t.Errorf("skyline member %v dominates %v", a, b)
			}
		}
	}
}

func TestQueryWithMappings(t *testing.T) {
	c := NewCluster(Config{Peers: 16, Seed: 10})
	a, b, ms := workload.HeterogeneousPair(20, 10)
	c.Insert(a.Triples...)
	c.Insert(b.Triples...)
	// Without mappings: only dblp data answers.
	res, err := c.Query(`SELECT ?n WHERE {(?p,'dblp:name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	plain := len(res.Bindings)
	if plain != 10 {
		t.Fatalf("dblp-only recall = %d, want 10", plain)
	}
	for _, m := range ms {
		c.AddMapping(m)
	}
	mapped, err := c.Query(`SELECT ?n WHERE {(?p,'dblp:name',?n)}`, WithMappings())
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped.Bindings) != 20 {
		t.Fatalf("mapped recall = %d, want 20 (both schemas)", len(mapped.Bindings))
	}
	// The union reports its variants' plans, their deepest routing, and —
	// its tail being blocking — a time-to-first equal to its elapsed time.
	if !strings.Contains(mapped.Plan, "dblp:name") || !strings.Contains(mapped.Plan, "ceur:") {
		t.Errorf("mapped plan does not list both variants: %q", mapped.Plan)
	}
	if mapped.Hops <= 0 {
		t.Errorf("mapped hops = %d, want > 0", mapped.Hops)
	}
	if mapped.Elapsed <= 0 || mapped.TimeToFirst != mapped.Elapsed {
		t.Errorf("mapped time-to-first %v, elapsed %v: want equal and positive", mapped.TimeToFirst, mapped.Elapsed)
	}
}

func TestIntrospection(t *testing.T) {
	c := smallCluster(t, Config{Peers: 8, Seed: 11})
	if len(c.LocalData(0)) == 0 {
		// Some peer must hold data; peer 0 might be empty by chance —
		// check the sum.
		total := 0
		for i := 0; i < c.Size(); i++ {
			total += len(c.LocalData(i))
		}
		if total == 0 {
			t.Error("no peer holds any data")
		}
	}
	rt := c.RoutingTable(0)
	if !strings.Contains(rt, "level") {
		t.Errorf("routing table rendering: %q", rt)
	}
	loads := c.StorageLoad()
	if len(loads) != 8 {
		t.Errorf("loads = %v", loads)
	}
}

func TestChurnWithReplication(t *testing.T) {
	c := NewCluster(Config{Peers: 8, Replicas: 2, Seed: 12, AntiEntropyInterval: 5 * time.Second})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 20})
	c.Insert(ds.Triples...)
	c.Kill(0)
	c.Kill(5)
	res, err := c.QueryFrom(2, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) < 15 { // best-effort: most data remains visible
		t.Errorf("churn lost too much: %d/20 names visible", len(res.Bindings))
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	c := NewCluster(Config{Peers: 4, Seed: 14})
	if _, err := c.Query(`SELECT garbage`); err == nil {
		t.Error("syntax error must surface")
	}
	if _, err := c.Query(`SELECT ?x WHERE {(?p,'a',?v)}`); err == nil {
		t.Error("unbound select variable must surface")
	}
}

func TestMappingRoundTripThroughOverlay(t *testing.T) {
	c := NewCluster(Config{Peers: 8, Seed: 15})
	c.AddMapping(schema.Mapping{From: "name", To: "fullname"})
	res, err := c.Query(schema.MappingQuery().String())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) != 1 {
		t.Fatalf("stored mappings = %d", len(res.Bindings))
	}
	if res.Bindings[0]["f"].Str != "name" || res.Bindings[0]["t"].Str != "fullname" {
		t.Errorf("mapping = %v", res.Bindings[0])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewCluster(Config{})
	if c.Size() != 16 {
		t.Errorf("default peers = %d", c.Size())
	}
	res, err := c.Query(`SELECT ?v WHERE {('none','a',?v)}`)
	if err != nil || len(res.Bindings) != 0 {
		t.Errorf("empty cluster query: %v %v", res, err)
	}
}

func BenchmarkClusterQuery(b *testing.B) {
	c := NewCluster(Config{Peers: 32, Seed: 20})
	ds := workload.Generate(workload.Options{Seed: 21, Persons: 100})
	c.Insert(ds.Triples...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT ?n WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProbeRTTSurfacedFromCaches: after warm probe traffic the
// compile-time stats refresh must surface a positive observed probe
// RTT out of the peers' per-replica latency EWMAs.
func TestProbeRTTSurfacedFromCaches(t *testing.T) {
	// Fetch mode keeps the probing stage at the origin (a shipped plan
	// would run its probes where the keys live, all loopback).
	c := NewCluster(Config{Peers: 16, Seed: 5, Latency: LatencyLAN,
		Optimizer: optimizer.Options{Mode: optimizer.ModeFetch}})
	for i := 0; i < 20; i++ {
		c.Insert(triple.T(fmt.Sprintf("r%02d", i), "name", fmt.Sprintf("n%02d", i)),
			triple.T(fmt.Sprintf("r%02d", i), "friend", fmt.Sprintf("n%02d", (i+1)%20)))
	}
	// The friend pattern's value variable is bound upstream, so the
	// second stage resolves with direct value probes — the traffic that
	// feeds the per-replica latency EWMAs.
	src := `SELECT ?p,?q WHERE {(?p,'name',?n) (?q,'friend',?n)}`
	// First run warms the caches; the second sends direct probes whose
	// round trips feed the EWMAs; the third compile reads them.
	for i := 0; i < 3; i++ {
		if _, err := c.QueryFrom(0, src); err != nil {
			t.Fatal(err)
		}
		c.Net().Settle()
	}
	if rtt := c.Stats().ProbeRTT; rtt <= 0 {
		t.Fatalf("observed probe RTT not surfaced: %v", rtt)
	}
}
