package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"unistore/internal/algebra"
	"unistore/internal/optimizer"
	"unistore/internal/triple"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

// lastPerFact keeps the last triple of each (oid, attr): what the
// store holds after loading ts, since it keeps one value per fact.
func lastPerFact(ts []triple.Triple) []triple.Triple {
	idx := map[[2]string]int{}
	var out []triple.Triple
	for _, tr := range ts {
		k := [2]string{tr.OID, tr.Attr}
		if i, ok := idx[k]; ok {
			out[i] = tr
			continue
		}
		idx[k] = len(out)
		out = append(out, tr)
	}
	return out
}

// vqlLiteral renders a value as a VQL literal.
func vqlLiteral(v triple.Value) string {
	if v.Kind == triple.KindNumber {
		return v.String()
	}
	return "'" + v.String() + "'"
}

// canonRows renders bindings order-independently.
func canonRows(bs []algebra.Binding) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v + "=" + b[v].Lexical() + ";")
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// TestSubjectJoinShapesMatchReference runs the subject-bound join
// shapes of the index-join workload (two- and three-pattern stars, a
// three-pattern chain) under every ship mode, at page sizes 1, 3 and
// off, on cold and then warm routing caches: every answer must equal
// the in-memory reference executor's, whichever of OID probes and the
// region scan the optimizer picks. Warm runs must pick probes somewhere
// under ModeFetch and ModeAuto, and never under ModeShip, which keeps
// the region its mutant plan migrates to.
func TestSubjectJoinShapesMatchReference(t *testing.T) {
	corpus := lastPerFact(workload.Generate(workload.Options{Seed: 42, Persons: 40}).Triples)
	authors := map[string]bool{}
	for _, tr := range corpus {
		if tr.Attr == "has_published" {
			authors[tr.OID] = true
		}
	}
	// values lists the first n distinct values attr takes on subjects
	// with a publication, so every query below has an answer.
	values := func(attr string, n int) []string {
		var out []string
		seen := map[string]bool{}
		for _, tr := range corpus {
			if lit := vqlLiteral(tr.Val); tr.Attr == attr && (attr != "age" || authors[tr.OID]) && !seen[lit] && len(out) < n {
				seen[lit] = true
				out = append(out, lit)
			}
		}
		return out
	}
	var queries []string
	for _, age := range values("age", 3) {
		queries = append(queries,
			fmt.Sprintf(`SELECT ?n,?t WHERE {(?p,'age',%s) (?p,'name',?n) (?p,'has_published',?t)}`, age),
			fmt.Sprintf(`SELECT ?u,?t WHERE {(?p,'age',%s) (?p,'has_published',?t) (?u,'title',?t)}`, age))
	}
	for _, conf := range values("published_in", 2) {
		queries = append(queries,
			fmt.Sprintf(`SELECT ?u,?t WHERE {(?u,'published_in',%s) (?u,'title',?t)}`, conf))
	}
	want := make([][]string, len(queries))
	for i, src := range queries {
		q, err := vql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := algebra.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonRows(algebra.Execute(lp, &algebra.MemSource{Triples: corpus}))
		if len(want[i]) == 0 {
			t.Fatalf("%s: empty reference answer", src)
		}
	}
	modes := map[optimizer.Mode]string{optimizer.ModeFetch: "fetch", optimizer.ModeShip: "ship", optimizer.ModeAuto: "auto"}
	for mode, name := range modes {
		for _, page := range []int{1, 3, 0} {
			opt := optimizer.DefaultOptions()
			opt.Mode = mode
			c := NewCluster(Config{Peers: 16, Seed: 61, PageSize: page, Optimizer: opt})
			c.Insert(corpus...)
			probed := false
			for pass, caches := range []string{"cold", "warm"} {
				for i, src := range queries {
					res, err := c.QueryFrom(pass, src)
					if err != nil {
						t.Fatal(err)
					}
					if got := canonRows(res.Bindings); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("mode %s page %d %s caches: %s\nplan %s\n got %v\nwant %v",
							name, page, caches, src, res.Plan, got, want[i])
					}
					if caches == "warm" && strings.Contains(res.Plan, "oid-lookup") {
						probed = true
					}
				}
			}
			if probed != (mode != optimizer.ModeShip) {
				t.Errorf("mode %s page %d: warm runs chose OID probes: %v, want %v", name, page, probed, !probed)
			}
		}
	}
}
