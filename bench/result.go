package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

const (
	// The dataset's size is fixed: every bound, the self-check's ratios and
	// the baseline are tuned to it. -smoke has its own, smaller one.
	defaultPersons = 150
	smokePersons   = 100
	runCycles      = 3
	warmOps        = 100 // per client
	countOps       = 300 // per client, per-layer run only
	burstOps       = 800
	readBackSample = 300
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, as printed and as written to -out.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Persons   int                    `json:"persons"`
	Triples   int                    `json:"triples"`
	PoolSize  int                    `json:"pool_queries"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples are the sample counts behind the percentiles, all cycles together.
	Samples map[string]int `json:"samples"`
	// CycleSpread is (max-min)/median of an end-to-end metric's values on
	// the run's cycles. -compare reports a metric as unresolved when its
	// spread exceeds its bound.
	CycleSpread map[string]float64 `json:"cycle_spread,omitempty"`
	// LayerTable is the traced run's self-time table, printed as is;
	// TracedAccounted is the share of op wall time it charges to layers
	// of the system rather than to the harness.
	LayerTable      string  `json:"-"`
	TracedAccounted float64 `json:"traced_accounted,omitempty"`

	defs []metricDef
}

func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// persons is the dataset size of a run with these options.
func (o options) persons() int {
	if o.smoke {
		return smokePersons
	}
	return defaultPersons
}

func newResult(env *environment, o options, defs []metricDef) *result {
	return &result{
		Workload: o.workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds, Persons: o.persons(),
		Stamp: env.stamp, Metrics: map[string]metricValue{}, Samples: map[string]int{},
		CycleSpread: map[string]float64{}, defs: defs,
	}
}

func (r *result) absorb(m *measurement) {
	r.Triples, r.PoolSize = m.triples, m.poolSize
	r.Attempted += m.attempted
	r.Failed += m.failed
	r.Failures = append(r.Failures, m.failures...)
}

func (r *result) finish() {
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	// Every metric of the table is reported, by name, on every workload.
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metricValue{Value: 0, Unit: d.unit}
		}
	}
}

// runOne runs one workload in the mode --trace selects.
func runOne(env *environment, o options) (*result, error) {
	cfg := runConfig{
		workload: o.workload, seed: o.seed, seconds: float64(o.seconds), persons: o.persons(),
		cycles: runCycles, warmOps: warmOps, burstOps: burstOps, sample: readBackSample,
		bin: env.bin, logDir: filepath.Join(env.outDir, o.workload), tmpDir: filepath.Join(env.buildDir, "tmp"),
	}
	if o.smoke {
		cfg.cycles, cfg.burstOps, cfg.sample = 1, 100, 100
	}
	if o.trace != 0 {
		return runLayers(env, o, cfg)
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	m, err := r.run(false)
	if err != nil {
		return nil, err
	}
	res := newResult(env, o, endToEndDefs)
	res.absorb(m)
	res.endToEnd(m)
	res.finish()
	return res, nil
}

// endToEnd derives the end-to-end metrics from a measurement: of each
// metric's per-cycle values, the best for the timings (see bestOf) and
// the median for memory and set-up time, as the contract asks.
func (r *result) endToEnd(m *measurement) {
	r.Samples["read_latency"] = m.reads
	r.Samples["write_latency"] = m.writes
	r.Samples["cycles"] = len(m.perCycle["setup_s"])
	for _, d := range r.defs {
		vals := m.perCycle[d.name]
		if len(vals) == 0 {
			continue
		}
		switch d.name {
		case "rss_mb", "setup_s":
			r.set(d.name, median(vals))
		default:
			r.set(d.name, bestOf(vals, d.better))
		}
		r.CycleSpread[d.name] = relSpread(vals)
	}
}

// print writes the human-readable report: every metric by name with
// its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  trace=%d seed=%d seconds=%d persons=%d triples=%d pool=%d queries\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Persons, r.Triples, r.PoolSize)
	fmt.Fprintf(w, "commit %s  nproc %d  %s\n", r.Stamp.Commit, r.Stamp.NProc, r.Stamp.GoVersion)
	fmt.Fprintf(w, "attempted %d  failed %d  fail_ratio %.6f  correct %v\n", r.Attempted, r.Failed, r.FailRatio, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	for _, d := range r.defs {
		v := r.Metrics[d.name]
		extra := ""
		if s, ok := r.CycleSpread[d.name]; ok {
			extra = fmt.Sprintf("  (spread %.1f%%)", s*100)
		}
		fmt.Fprintf(w, "  %-42s %14.4f %-6s%s\n", d.name, v.Value, v.Unit, extra)
	}
	if r.LayerTable != "" {
		fmt.Fprint(w, r.LayerTable)
	}
}

// printContractLine writes the driver's result object as the last
// line of standard output.
func (r *result) printContractLine(w io.Writer) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
