package main

// The oracle: the same dataset on an in-process, deterministic simnet
// core.Cluster of the same shape. Every answer the TCP cluster gives
// is checked against it.

import (
	"fmt"
	"sort"
	"strings"

	"unistore/internal/core"
)

type oracle struct {
	c *core.Cluster
}

func newOracle(ds *dataset) *oracle {
	c := core.NewCluster(core.Config{
		Peers: clusterPeers, Replicas: clusterReplicas, Seed: clusterSeed, PageSize: clusterPage,
	})
	c.BulkInsert(ds.triples...)
	return &oracle{c: c}
}

// rows answers one query as sorted tab-joined rows, the form the
// daemon's line protocol prints them in.
func (o *oracle) rows(vql string) ([]string, error) {
	res, err := o.c.QueryFrom(0, vql)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", vql, err)
	}
	rows := make([]string, 0, len(res.Bindings))
	for _, row := range res.Rows() {
		rows = append(rows, strings.Join(row, "\t"))
	}
	sort.Strings(rows)
	return rows, nil
}

// answers resolves every query of the pool.
func (o *oracle) answers(p *pool) ([][]string, error) {
	want := make([][]string, len(p.texts))
	for i, q := range p.texts {
		rows, err := o.rows(q)
		if err != nil {
			return nil, err
		}
		want[i] = rows
	}
	return want, nil
}

func sameRows(got, wantSorted []string) bool {
	if len(got) != len(wantSorted) {
		return false
	}
	g := append([]string(nil), got...)
	sort.Strings(g)
	for i := range g {
		if g[i] != wantSorted[i] {
			return false
		}
	}
	return true
}
