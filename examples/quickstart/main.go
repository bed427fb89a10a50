// Quickstart: build a small UniStore cluster, insert the paper's Fig. 2
// example tuples, and run basic VQL queries — exact lookup, range,
// similarity, and tuple reconstruction.
package main

import (
	"fmt"
	"log"

	"unistore"
)

func main() {
	// An 8-peer overlay on constant-latency links, with the q-gram
	// similarity index enabled.
	c := unistore.New(unistore.Config{Peers: 8, EnableQGram: true})

	// The two example tuples of the paper's Fig. 2: each 3-attribute
	// tuple becomes 3 triples, each indexed 3 ways → 18 entries.
	// BulkInsert loads the batch with every acked DHT put in flight at
	// once, then one quiescence at the end.
	a12 := unistore.NewTuple("a12").
		Set("title", unistore.S("Similarity...")).
		Set("confname", unistore.S("ICDE 2006 - Workshops")).
		Set("year", unistore.N(2006))
	v34 := unistore.NewTuple("v34").
		Set("title", unistore.S("Progressive...")).
		Set("confname", unistore.S("ICDE 2005")).
		Set("year", unistore.N(2005))
	c.BulkInsert(append(a12.Triples(), v34.Triples()...)...)

	run := func(label, q string) *unistore.Result {
		res, err := c.Query(q)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("-- %s\n   %s\n", label, q)
		fmt.Printf("   %d result(s), %d messages, %v simulated\n",
			len(res.Bindings), res.Messages, res.Elapsed)
		for _, row := range res.Rows() {
			fmt.Printf("   %v\n", row)
		}
		fmt.Println()
		return res
	}

	// Exact attribute#value lookup — routed to one peer in O(log n).
	run("exact lookup", `SELECT ?p WHERE {(?p,'confname','ICDE 2005')}`)

	// Range query over a numeric attribute — the order-preserving hash
	// makes this a prefix routing problem, no flooding.
	run("range query", `SELECT ?p,?y WHERE {(?p,'year',?y) FILTER ?y >= 2006}`)

	// Similarity: tolerate typos with edit distance (q-gram index).
	run("similarity", `SELECT ?c WHERE {(?p,'confname',?c) FILTER edist(?c,'ICDE 2005')<3}`)

	// Reconstruct the origin tuple from the OID index — schema-level
	// query with a variable in attribute position.
	run("reconstruct a12", `SELECT ?attr,?val WHERE {('a12',?attr,?val)}`)

	// Every peer sees the same data; ask another peer.
	res, err := c.Query(`SELECT ?t WHERE {(?p,'title',?t)} ORDER BY ?t`, unistore.From(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- titles via peer 5: %v\n", res.Rows())
}
