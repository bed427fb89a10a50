// Command unibench regenerates the reproduction's experiment tables
// (E1–E12 of internal/experiments): it builds simulated UniStore
// clusters, runs each experiment's workload, and prints the measured
// table. Its output is the record of the reproduction until ROADMAP
// item H generates an EXPERIMENTS.md from it.
//
// Usage:
//
//	unibench                 # run every experiment at full scale
//	unibench -exp E5         # run one experiment
//	unibench -scale 0.25     # reduced scale (faster)
//	unibench -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"unistore/internal/experiments"
	"unistore/internal/trace"
)

var registry = []struct {
	id   string
	desc string
	run  func(experiments.Scale) *trace.Series
}{
	{"E1", "Fig. 2: triple placement (18 entries on 8 peers)",
		func(experiments.Scale) *trace.Series { return experiments.E1TriplePlacement() }},
	{"E2", "logarithmic routing hops vs. network size", experiments.E2RoutingHops},
	{"E3", "query latency under PlanetLab delays (≤400 peers)", experiments.E3QueryLatency},
	{"E4", "identical query under forced plan variants", experiments.E4PlanVariants},
	{"E5", "similarity selection: q-gram index vs. broadcast", experiments.E5Similarity},
	{"E6", "storage load balancing under Zipf skew", experiments.E6LoadBalance},
	{"E7", "skyline and top-N ranking operators", experiments.E7Skyline},
	{"E8", "loosely consistent updates and anti-entropy", experiments.E8Updates},
	{"E9", "range queries: P-Grid vs. Chord baseline", experiments.E9RangeVsChord},
	{"E10", "schema mappings: recall across heterogeneous schemas", experiments.E10Mappings},
	{"E11", "merging two independent overlays", experiments.E11Merge},
	{"E12", "the paper's example query end to end", experiments.E12PaperQuery},
}

func main() {
	exp := flag.String("exp", "", "experiment id (E1..E12); empty runs all")
	scale := flag.Float64("scale", 1.0, "experiment scale factor (peers/data)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return
	}
	s := experiments.Scale(*scale)
	ran := 0
	for _, e := range registry {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		start := time.Now()
		tab := e.run(s)
		fmt.Println(tab.String())
		fmt.Printf("(%s wall time: %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unibench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
}
