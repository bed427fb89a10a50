package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"unistore/internal/triple"
	"unistore/internal/workload"
)

// startNodes launches an in-process multi-"process" cluster: several
// TCP hosts, each with its own netx transport on loopback.
func startNodes(t *testing.T, procs, parts, replicas int) []*Cluster {
	t.Helper()
	nodes := make([]*Cluster, 0, procs)
	var seeds []string
	for pi := 0; pi < procs; pi++ {
		n, err := NewNode(NodeConfig{
			Seeds: seeds, Partitions: parts, Replicas: replicas,
			Procs: procs, ProcIndex: pi, Seed: 5, PageSize: 8,
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if pi == 0 {
			seeds = []string{n.Addr()}
		}
	}
	for _, n := range nodes {
		if !n.WaitReady(10 * time.Second) {
			t.Fatalf("node %s never saw full routes: %v", n.Addr(), n.Transport().Routes())
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// loadNodes inserts ts through nodes[0]'s acked write path and waits
// for every process to quiesce.
func loadNodes(t *testing.T, nodes []*Cluster, ts []triple.Triple) {
	t.Helper()
	for _, tr := range ts {
		if err := nodes[0].InsertAcked(tr, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	barrier(t, nodes)
}

func barrier(t *testing.T, nodes []*Cluster) {
	t.Helper()
	for _, n := range nodes {
		if !n.Barrier(10 * time.Second) {
			t.Fatal("barrier did not quiesce")
		}
	}
}

func sortedRows(r *Result) []string {
	rows := make([]string, 0, len(r.Bindings))
	for _, row := range r.Rows() {
		rows = append(rows, strings.Join(row, "\t"))
	}
	sort.Strings(rows)
	return rows
}

// TestNodeMatchesSimnetCluster loads the same workload into a
// multi-transport TCP cluster and a single-process simnet Cluster and
// requires identical answers for lookups, range filters, aggregations
// and ranked top-k (LIMIT early termination over netx) — the
// equivalence claim in miniature — with no pending op left behind.
func TestNodeMatchesSimnetCluster(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 25})

	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5})
	ref.Insert(ds.Triples...)

	nodes := startNodes(t, procs, parts, replicas)
	loadNodes(t, nodes, ds.Triples)

	queries := []string{
		`SELECT ?n WHERE {(?p,'name',?n)}`,
		`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
		`SELECT count(?a) AS ?cnt WHERE {(?p,'age',?a)}`,
		`SELECT ?conf, count(*) AS ?cnt WHERE {(?u,'published_in',?conf)} GROUP BY ?conf`,
		`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`,
		`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n DESC LIMIT 5`,
		`SELECT ?n,?a WHERE {(?p,'email','p3@example.org') (?p,'name',?n) (?p,'age',?a)}`,
	}
	for _, q := range queries {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		// Query from every process: answers must agree regardless of
		// which side of the TCP split originates the plan.
		for ni, n := range nodes {
			got, err := n.QueryFrom(0, q)
			if err != nil {
				t.Fatalf("%s: node %d: %v", q, ni, err)
			}
			w, g := sortedRows(want), sortedRows(got)
			if strings.Join(w, "\n") != strings.Join(g, "\n") {
				t.Errorf("%s: node %d diverged\nsimnet (%d rows):\n%s\nnode (%d rows):\n%s",
					q, ni, len(w), strings.Join(w, "\n"), len(g), strings.Join(g, "\n"))
			}
		}
	}
	barrier(t, nodes)
	for ni, n := range nodes {
		for _, p := range n.Peers() {
			if ops := p.PendingOps(); ops != 0 {
				t.Errorf("node %d peer %d: %d pending ops leaked past the barrier", ni, p.ID(), ops)
			}
		}
	}
}

// TestNodeOptimizerSeesObservedStats: the TCP host's optimizer must
// price probes from the same refreshed inputs as the simnet host's —
// the observed routing-cache hit rate and the replica fan-out reads
// actually use — not the cold, single-owner defaults.
func TestNodeOptimizerSeesObservedStats(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 25})
	nodes := startNodes(t, procs, parts, replicas)
	loadNodes(t, nodes, ds.Triples)
	n := nodes[0]
	lookup := func(origin int) {
		t.Helper()
		if _, err := n.QueryFrom(origin, `SELECT ?a WHERE {('person-00001','age',?a)}`); err != nil {
			t.Fatal(err)
		}
	}
	// Point lookups from every hosted origin: the ones remote from the
	// key's partition miss once, then probe directly from the cache.
	for round := 0; round < 3; round++ {
		for origin := range n.Peers() {
			lookup(origin)
		}
	}
	// compile refreshes its memoized rates once rateWindow has passed.
	time.Sleep(rateWindow)
	lookup(0)
	st := n.Stats()
	if st.CacheHitRate <= 0 {
		t.Errorf("optimizer CacheHitRate = %v after warm queries, want > 0", st.CacheHitRate)
	}
	if st.Replicas != replicas {
		t.Errorf("optimizer Replicas = %d, want %d", st.Replicas, replicas)
	}
}

// TestNodeSurvivesPeerProcessDeath closes one node outright (the
// in-process analog of kill -9) and checks the survivor still answers
// every query completely from its replica halves.
func TestNodeSurvivesPeerProcessDeath(t *testing.T) {
	const procs, parts, replicas = 2, 4, 2
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 20})

	ref := NewCluster(Config{Peers: parts, Replicas: replicas, Seed: 5})
	ref.Insert(ds.Triples...)

	nodes := startNodes(t, procs, parts, replicas)
	loadNodes(t, nodes, ds.Triples)
	// Hard-kill process 1: no graceful drain, just sever the transport.
	nodes[1].Transport().Close()

	q := `SELECT ?n WHERE {(?p,'name',?n)}`
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodes[0].QueryFrom(0, q)
	if err != nil {
		t.Fatal(err)
	}
	w, g := sortedRows(want), sortedRows(got)
	if strings.Join(w, "\n") != strings.Join(g, "\n") {
		t.Fatalf("post-death divergence\nwant (%d rows):\n%s\ngot (%d rows):\n%s",
			len(w), strings.Join(w, "\n"), len(g), strings.Join(g, "\n"))
	}
}
