// Heterogeneous: public data management with multiple schemas (§1–§2).
// Two communities publish bibliographic data under different attribute
// vocabularies (dblp:* and ceur:*); correspondence triples — ordinary
// data in the "map" namespace — bridge them, and the system applies
// them automatically during query rewriting.
package main

import (
	"fmt"
	"log"

	"unistore"
	"unistore/internal/workload"
)

func main() {
	c := unistore.New(unistore.Config{Peers: 32, Seed: 5})

	// The same logical world, two vocabularies.
	dblp, ceur, mappings := workload.HeterogeneousPair(21, 25)
	c.BulkInsert(dblp.Triples...)
	c.BulkInsert(ceur.Triples...)
	fmt.Printf("inserted %d dblp:* and %d ceur:* triples\n\n",
		len(dblp.Triples), len(ceur.Triples))

	query := `SELECT ?n WHERE {(?p,'dblp:name',?n)}`

	// Without mappings, the query only sees its own schema.
	plain, err := c.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("without mappings: %d persons (dblp only)\n", len(plain.Bindings))

	// Publish the correspondences — they are triples like any other
	// and can be queried explicitly...
	for _, m := range mappings {
		c.AddMapping(m)
	}
	meta, err := c.Query(`SELECT ?f,?t WHERE {(?m,'map:from',?f) (?m,'map:to',?t)}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d correspondence triples; sample:\n", len(meta.Bindings))
	for i, row := range meta.Rows() {
		if i >= 3 {
			break
		}
		fmt.Printf("  %s  =  %s\n", row[0], row[1])
	}

	// ...or applied automatically: the system fetches the mappings,
	// rewrites the query across the closure, and unites the results.
	mapped, err := c.Query(query, unistore.WithMappings())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith automatic rewriting: %d persons (both schemas)\n", len(mapped.Bindings))

	// The rewriting composes with the full query surface: a skyline
	// across both communities.
	sky, err := c.Query(`SELECT ?n,?age,?cnt WHERE {
		(?p,'dblp:name',?n) (?p,'dblp:age',?age) (?p,'dblp:num_of_pubs',?cnt)
	} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`, unistore.WithMappings())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-schema author skyline (%d members):\n", len(sky.Bindings))
	for _, b := range sky.Bindings {
		fmt.Printf("  %-28s age %2.0f, %2.0f pubs\n",
			b["n"].Str, b["age"].Num, b["cnt"].Num)
	}
}
