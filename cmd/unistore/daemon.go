package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"unistore/internal/core"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
)

// runDaemon runs one node process of a multi-process cluster. It
// speaks a line protocol on stdin/stdout (the integration harness is
// the client) and logs to stderr:
//
//	-> READY <addr>            printed once bootstrap converged
//	<- PING                    -> PONG
//	<- INSERT <oid> <attr> <value>
//	                           -> OK | ERR <msg>   (acked write)
//	<- QUERY <vql>             -> OK <n>, n tab-separated rows, "."
//	<- BARRIER                 -> OK | ERR timeout  (local quiescence)
//	<- QUIT                    -> graceful shutdown, exit 0
//
// SIGTERM/SIGINT also trigger graceful shutdown: pending operations
// drain, queued frames flush, and every goroutine joins before exit.
//
// cfg carries the shape flags; seeds (comma-separated), fsync and the
// debug listen address are parsed here.
func runDaemon(cfg core.NodeConfig, seeds, fsync, debug string) {
	logger := log.New(os.Stderr, fmt.Sprintf("unistore[%d]: ", cfg.ProcIndex), log.Lmicroseconds)
	for _, s := range strings.Split(seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Seeds = append(cfg.Seeds, s)
		}
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		logger.Printf("start: %v", err)
		os.Exit(1)
	}
	cfg.Fsync, cfg.Logf = policy, logger.Printf
	c, err := core.NewNode(cfg)
	if err != nil {
		logger.Printf("start: %v", err)
		os.Exit(1)
	}
	h := c.Health()
	logger.Printf("listening on %s, hosting %d/%d peers", h.Addr, h.Peers, h.ClusterSize)
	rejoin := false
	for i, ri := range c.Recovery() {
		logger.Printf("peer %d: recovered snapshot(gen=%d,%d entries) + %d log records, clean=%v torn=%dB",
			i, ri.SnapshotGen, ri.SnapshotEntries, ri.Replayed, ri.Clean, ri.TornBytes)
		if ri.HadState {
			rejoin = true
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		logger.Printf("%v: draining and shutting down", sig)
		c.Close()
		os.Exit(0)
	}()

	// ADDR goes out immediately — the harness needs the resolved :0
	// port to seed the next process. READY follows once this process
	// knows a route to every peer in the cluster, which requires the
	// other processes to be up; the two-line handshake avoids the
	// chicken-and-egg of gating the address on full convergence.
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "ADDR %s\n", c.Addr())
	if debug != "" {
		dbgAddr, err := startDebug(c, debug)
		if err != nil {
			logger.Printf("debug listener: %v", err)
			os.Exit(1)
		}
		logger.Printf("debug endpoints on http://%s (/metrics /healthz /trace/recent /debug/pprof/)", dbgAddr)
		fmt.Fprintf(out, "DEBUG %s\n", dbgAddr)
	}
	out.Flush()
	if !c.WaitReady(60 * time.Second) {
		logger.Printf("bootstrap timeout: routes=%v", c.Transport().Routes())
		os.Exit(1)
	}
	if rejoin {
		// This is a restart: re-register with the replica groups and
		// pull the writes missed while down (the join's digest round
		// ships only what drifted from the recovered state).
		logger.Printf("recovered prior state: rejoining replica groups")
		c.Rejoin()
	}
	fmt.Fprintf(out, "READY %s\n", c.Addr())
	out.Flush()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		serveCommand(c, logger, out, line)
		out.Flush()
	}
	// stdin closed: the harness is gone; shut down gracefully.
	logger.Printf("stdin closed, shutting down")
	c.Close()
}

func serveCommand(c *core.Cluster, logger *log.Logger, out io.Writer, line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		fmt.Fprintln(out, "PONG")
	case "INSERT":
		oid, rest, ok1 := cut2(rest)
		attr, val, ok2 := cut2(rest)
		if !ok1 || !ok2 {
			fmt.Fprintln(out, "ERR usage: INSERT <oid> <attr> <value>")
			return
		}
		tr := triple.Triple{OID: oid, Attr: attr, Val: parseValue(val)}
		if err := c.InsertAcked(tr, 30*time.Second); err != nil {
			logger.Printf("insert: %v", err)
			fmt.Fprintf(out, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(out, "OK")
	case "QUERY":
		// Queries originate at hosted peer 0, whose routing cache the
		// preceding queries warmed.
		res, err := c.Query(rest, core.From(0))
		if err != nil {
			logger.Printf("query: %v", err)
			fmt.Fprintf(out, "ERR %v\n", strings.ReplaceAll(err.Error(), "\n", " "))
			return
		}
		rows := res.Rows()
		fmt.Fprintf(out, "OK %d\n", len(rows))
		for _, row := range rows {
			fmt.Fprintln(out, strings.Join(row, "\t"))
		}
		fmt.Fprintln(out, ".")
	case "BARRIER":
		if c.Barrier(30 * time.Second) {
			fmt.Fprintln(out, "OK")
		} else {
			fmt.Fprintln(out, "ERR timeout")
		}
	case "QUIT":
		fmt.Fprintln(out, "OK")
		if f, ok := out.(interface{ Flush() error }); ok {
			f.Flush()
		}
		c.Close()
		os.Exit(0)
	default:
		fmt.Fprintf(out, "ERR unknown command %q\n", cmd)
	}
}

func cut2(s string) (string, string, bool) {
	a, b, ok := strings.Cut(strings.TrimSpace(s), " ")
	return a, strings.TrimSpace(b), ok
}

// parseValue types a protocol value: numbers become N, the rest S.
func parseValue(s string) triple.Value {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return triple.N(f)
	}
	return triple.S(s)
}
