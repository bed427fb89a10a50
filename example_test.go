package unistore_test

import (
	"context"
	"fmt"

	"unistore"
)

// ExampleConfig shows the knobs a cluster is built with: overlay size,
// replication, the similarity index, and paged range scans (which give
// LIMIT/top-k queries pages never to pull when they terminate early).
func ExampleConfig() {
	c := unistore.New(unistore.Config{
		Peers:       32,   // key-space partitions
		Replicas:    2,    // replica group per partition
		Seed:        7,    // all randomness flows from here
		EnableQGram: true, // maintain the similarity index
		PageSize:    64,   // answer range scans 64 entries at a time
	})
	c.Insert(unistore.NewTuple("a12").
		Set("title", unistore.S("Similarity Queries")).
		Set("year", unistore.N(2006)).Triples()...)
	res, err := c.Query(`SELECT ?t WHERE {(?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2006}`)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Rows()[0][0])
	// Output: Similarity Queries
}

// ExampleCluster_QueryStream runs a ranked top-k query through the
// streaming pipeline: rows arrive through the cursor in ranking order
// as pages of the ordered scan arrive, and the scan stops pulling pages
// as soon as the bound proves no better name can arrive.
func ExampleCluster_QueryStream() {
	c := unistore.New(unistore.Config{Peers: 32, Seed: 1, PageSize: 2})
	for i, name := range []string{"carol", "alice", "dave", "bob", "erin"} {
		c.Insert(unistore.NewTuple(fmt.Sprintf("p%d", i)).
			Set("name", unistore.S(name)).Triples()...)
	}
	st, err := c.QueryStream(context.Background(),
		`SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 3`)
	if err != nil {
		panic(err)
	}
	defer st.Close()
	for {
		row, ok := st.Next()
		if !ok {
			break
		}
		fmt.Println(row["n"])
	}
	// Output:
	// alice
	// bob
	// carol
}
