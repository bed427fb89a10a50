// Publications: the paper's flagship scenario (§2) — a distributed
// bibliography over persons, publications and conferences (Fig. 3
// schema), queried with joins, similarity filters, and the skyline
// operator: "a skyline of authors that reaches from the youngest
// authors to those who published the most, considering only authors
// published in the ICDE series, tolerating typos in the series name."
package main

import (
	"fmt"
	"log"

	"unistore"
	"unistore/internal/workload"
)

func main() {
	// A 64-peer wide-area overlay with similarity indexing.
	c := unistore.New(unistore.Config{
		Peers:       64,
		Latency:     unistore.LatencyWAN,
		EnableQGram: true,
		Seed:        42,
	})

	// 150 researchers with publications at conferences; 20% of the
	// conference series names carry typos ("ICDEE", "ICD", ...), which
	// is exactly what the edist filter is for.
	ds := workload.Generate(workload.Options{Seed: 7, Persons: 150, TypoRate: 0.2})
	c.BulkInsert(ds.Triples...) // bulk load: overlapping acked writes, one settle

	fmt.Printf("loaded %d triples over %d peers\n\n", len(ds.Triples), c.Size())

	// The paper's example query, verbatim structure.
	res, err := c.Query(`SELECT ?name,?age,?cnt
		WHERE {(?a,'name',?name) (?a,'age',?age)
		(?a,'num_of_pubs',?cnt)
		(?a,'has_published',?title) (?p,'title',?title)
		(?p,'published_in',?conf) (?c,'confname',?conf)
		(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
		} ORDER BY SKYLINE OF ?age MIN, ?cnt MAX`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("skyline of ICDE authors (age MIN, publications MAX):")
	fmt.Println("  name                        | age | pubs")
	for _, b := range res.Bindings {
		fmt.Printf("  %-27s | %3.0f | %4.0f\n",
			b["name"].Str, b["age"].Num, b["cnt"].Num)
	}
	fmt.Printf("(%d skyline members, %d messages, %v simulated latency)\n\n",
		len(res.Bindings), res.Messages, res.Elapsed)

	// Top-N instead of a skyline: the 5 most prolific authors.
	top, err := c.Query(`SELECT ?name,?cnt WHERE {
		(?a,'name',?name) (?a,'num_of_pubs',?cnt)} ORDER BY ?cnt DESC TOP 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 authors by publication count:")
	for _, row := range top.Rows() {
		fmt.Printf("  %-27s %s\n", row[0], row[1])
	}

	// Substring-flavored search via contains().
	sub, err := c.Query(`SELECT ?t WHERE {(?p,'title',?t) FILTER contains(?t,'skyline')} LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntitles mentioning 'skyline' (%d):\n", len(sub.Bindings))
	for _, row := range sub.Rows() {
		fmt.Printf("  %s\n", row[0])
	}
}
