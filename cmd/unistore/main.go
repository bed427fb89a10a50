// Command unistore is the interactive shell over a simulated UniStore
// cluster — the equivalent of the demo paper's user interface (§4):
// insert triples, formulate VQL queries in one "tab", inspect results,
// the local data, and the locally built routing tables.
//
// Usage:
//
//	unistore [-peers 64] [-replicas 2] [-latency planetlab] [-qgram] [-demo]
//
// With -listen, unistore instead hosts one process's share of a real
// multi-process cluster over TCP (see daemon.go; shape flags shown at
// their defaults, which must match in every process):
//
//	unistore -listen 127.0.0.1:0 -procs 3 -proc 1 -seeds <addr> \
//	         [-peers 32] [-replicas 1] [-page 0] [-seed 1]
//
// Commands at the prompt:
//
//	SELECT ... / INSERT {...}   VQL statement (multi-line until ';')
//	\demo                       load the demo publication dataset
//	\local <peer>               inspect a peer's local data
//	\routes <peer>              inspect a peer's routing table
//	\load                       per-peer storage load
//	\stats                      network statistics
//	\mapping <from> <to>        add a schema mapping
//	\mq SELECT ...              query with automatic mapping rewrites
//	\help                       this help
//	\quit                       exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"unistore/internal/core"
	"unistore/internal/schema"
	"unistore/internal/vql"
	"unistore/internal/workload"
)

func main() {
	peers := flag.Int("peers", 32, "number of overlay partitions")
	replicas := flag.Int("replicas", 1, "replicas per partition")
	latency := flag.String("latency", "constant", "latency model: constant|lan|wan|planetlab")
	qgram := flag.Bool("qgram", true, "maintain the distributed q-gram similarity index")
	seed := flag.Int64("seed", 1, "random seed")
	demo := flag.Bool("demo", false, "preload the demo publication dataset")
	listen := flag.String("listen", "", "daemon mode: TCP listen address (e.g. 127.0.0.1:0)")
	seeds := flag.String("seeds", "", "daemon mode: comma-separated seed addresses")
	procs := flag.Int("procs", 1, "daemon mode: total process count")
	proc := flag.Int("proc", 0, "daemon mode: this process's index (0-based)")
	page := flag.Int("page", 0, "daemon mode: range-scan page size (0 = no paging)")
	data := flag.String("data", "", "daemon mode: durable data directory (WAL + snapshots; empty = memory only)")
	fsync := flag.String("fsync", "always", "daemon mode: WAL fsync policy: always|interval|off")
	debug := flag.String("debug", "", "daemon mode: HTTP debug listen address serving /metrics, /healthz, /trace/recent and /debug/pprof/ (e.g. 127.0.0.1:0)")
	traceOn := flag.Bool("trace", false, "daemon mode: record end-to-end query traces (served at /trace/recent)")
	slowQuery := flag.Duration("slowquery", 0, "daemon mode: log the trace tree of queries slower than this (0 = off; implies -trace to be useful)")
	flag.Parse()

	if *listen != "" {
		runDaemon(core.NodeConfig{
			Listen: *listen, Partitions: *peers, Replicas: *replicas,
			Procs: *procs, ProcIndex: *proc, Seed: *seed, PageSize: *page,
			DataDir: *data, Tracing: *traceOn, SlowQuery: *slowQuery,
		}, *seeds, *fsync, *debug)
		return
	}

	c := core.NewCluster(core.Config{
		Peers:       *peers,
		Replicas:    *replicas,
		Latency:     core.LatencyProfile(*latency),
		Seed:        *seed,
		EnableQGram: *qgram,
	})
	fmt.Printf("unistore: %d peers, %d replica(s), %s links\n", *peers, *replicas, *latency)
	if *demo {
		loadDemo(c)
	}
	repl(c)
}

func loadDemo(c *core.Cluster) {
	ds := workload.Generate(workload.Options{Seed: 7, Persons: 100, TypoRate: 0.15})
	c.Insert(ds.Triples...)
	fmt.Printf("loaded demo dataset: %d triples (persons, publications, conferences)\n",
		len(ds.Triples))
}

func repl(c *core.Cluster) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("vql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case pending.Len() == 0 && strings.HasPrefix(trimmed, `\`):
			command(c, trimmed)
		case pending.Len() == 0 && trimmed == "":
		default:
			pending.WriteString(line)
			pending.WriteString("\n")
			if strings.HasSuffix(trimmed, ";") {
				stmt := strings.TrimSuffix(strings.TrimSpace(pending.String()), ";")
				pending.Reset()
				execute(c, stmt)
			}
		}
		prompt()
	}
}

func command(c *core.Cluster, line string) {
	fields := strings.Fields(line)
	arg := func(i int, def int) int {
		if len(fields) > i {
			if v, err := strconv.Atoi(fields[i]); err == nil {
				return v
			}
		}
		return def
	}
	switch fields[0] {
	case `\demo`:
		loadDemo(c)
	case `\local`:
		idx := arg(1, 0)
		ts := c.LocalData(idx)
		fmt.Printf("peer %d stores %d triples:\n", idx, len(ts))
		for i, tr := range ts {
			if i >= 25 {
				fmt.Printf("  ... and %d more\n", len(ts)-25)
				break
			}
			fmt.Printf("  %s\n", tr)
		}
	case `\routes`:
		fmt.Print(c.RoutingTable(arg(1, 0)))
	case `\load`:
		loads := c.StorageLoad()
		for i, l := range loads {
			fmt.Printf("  peer %2d (%s): %d entries\n", i, c.Peers()[i].Path(), l)
		}
	case `\stats`:
		fmt.Println(" ", c.Net().String())
	case `\mapping`:
		if len(fields) != 3 {
			fmt.Println("usage: \\mapping <fromAttr> <toAttr>")
			return
		}
		c.AddMapping(schema.Mapping{From: fields[1], To: fields[2]})
		fmt.Printf("mapping %s = %s published\n", fields[1], fields[2])
	case `\mq`:
		src := strings.TrimSpace(strings.TrimPrefix(line, `\mq`))
		res, err := c.Query(src, core.WithMappings())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(res)
	case `\help`:
		fmt.Println(helpText)
	case `\quit`, `\q`:
		os.Exit(0)
	default:
		fmt.Printf("unknown command %s (try \\help)\n", fields[0])
	}
}

const helpText = `  SELECT ... ;            run a VQL query (end with ';')
  INSERT {(...)...} ;      insert triples
  \demo                    load the demo publication dataset
  \local <peer>            inspect a peer's local data
  \routes <peer>           inspect a peer's routing table
  \load                    per-peer storage load
  \stats                   network statistics
  \mapping <from> <to>     add a schema mapping
  \mq SELECT ...           query with automatic mapping rewrites
  \quit                    exit`

func execute(c *core.Cluster, src string) {
	stmt, err := vql.Parse(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	switch s := stmt.(type) {
	case *vql.Insert:
		c.Insert(s.Triples...)
		fmt.Printf("inserted %d triples (%d index entries)\n",
			len(s.Triples), 3*len(s.Triples))
	case *vql.Query:
		res, err := c.Query(src)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printResult(res)
	}
}

func printResult(res *core.Result) {
	fmt.Printf("%d result(s) in %v (simulated), %d messages, %d hops\n",
		len(res.Bindings), res.Elapsed, res.Messages, res.Hops)
	if len(res.Bindings) == 0 {
		return
	}
	header := make([]string, len(res.Vars))
	for i, v := range res.Vars {
		header[i] = "?" + v
	}
	fmt.Println("  " + strings.Join(header, " | "))
	for i, row := range res.Rows() {
		if i >= 50 {
			fmt.Printf("  ... and %d more\n", len(res.Bindings)-50)
			break
		}
		fmt.Println("  " + strings.Join(row, " | "))
	}
}
