package main

// -compare A.json B.json: the tool behind every before/after. It
// applies each end-to-end metric's bound from BENCHMARK.json to two
// -out files and exits non-zero on a breach.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, as far as the bench reads it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of the change (b) with the base (a); a is
// not 0. spread is the wider of the two runs' own spreads on the metric
// (result.CycleSpread).
func judge(m benchMetric, a, b, spread float64) string {
	worse := (b - a) / a // the share of a by which b is worse (negative: better)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound && worse > spread:
		return verdictBreach
	case spread > m.Bound:
		// The runs disagree with themselves by more than the bound: this
		// pair can neither show a breach of that size nor rule one out.
		return verdictUnresolved
	}
	return verdictOK
}

func compareFiles(pathA, pathB string, w io.Writer) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	breaches, err := compareSets(bf, a, b, w)
	if err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", breaches)
	}
	return nil
}

// comparable reports why a and b cannot be compared: different inputs,
// or a workload or metric of BENCHMARK.json that one of them lacks (an
// end-to-end metric is never 0, so 0 is missing too).
func comparable(bf *benchmarkFile, a, b *resultSet) error {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Persons != b.Persons {
		return fmt.Errorf("A (seed %d, %d s, %d persons) and B (seed %d, %d s, %d persons) measured different inputs",
			a.Seed, a.Seconds, a.Persons, b.Seed, b.Seconds, b.Persons)
	}
	for i, rs := range []*resultSet{a, b} {
		side := "AB"[i : i+1]
		for _, wl := range bf.Workloads {
			ends, layers := rs.find(wl.Name, 0), rs.find(wl.Name, 1)
			if ends == nil || layers == nil {
				return fmt.Errorf("%s lacks a result for %s (it wants both --trace 0 and 1)", side, wl.Name)
			}
			for _, m := range bf.EndToEnd {
				if ends.Metrics[m.Name].Value == 0 {
					return fmt.Errorf("%s: %s has no %s", side, wl.Name, m.Name)
				}
			}
			for _, m := range bf.PerLayer {
				if _, ok := layers.Metrics[m.Name]; !ok {
					return fmt.Errorf("%s: %s has no %s", side, wl.Name, m.Name)
				}
			}
		}
	}
	return nil
}

// compareSets prints one row per (workload, metric) with both values
// and the ratio b/a, and returns the number of breaches.
func compareSets(bf *benchmarkFile, a, b *resultSet, w io.Writer) (int, error) {
	if err := comparable(bf, a, b); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "base A: commit %s seed %d, %d s, %d persons\n", a.Stamp.Commit, a.Seed, a.Seconds, a.Persons)
	fmt.Fprintf(w, "      B: commit %s seed %d, %d s, %d persons\n", b.Stamp.Commit, b.Seed, b.Seconds, b.Persons)
	fmt.Fprintf(w, "%-13s %-36s %14s %14s %10s %7s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "spread", "verdict")
	breaches := 0
	for _, wl := range bf.Workloads {
		ra, rb := a.find(wl.Name, 0), b.find(wl.Name, 0)
		fa, fb := ra.FailRatio, rb.FailRatio
		verdict := verdictOK
		if fb > fa { // any increase is a regression
			verdict = verdictBreach
			breaches++
		}
		fmt.Fprintf(w, "%-13s %-36s %14.6f %14.6f %10s %7s %7s  %s\n", wl.Name, "fail_ratio", fa, fb, "-", "0", "-", verdict)
		for _, m := range bf.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			spread := max(ra.CycleSpread[m.Name], rb.CycleSpread[m.Name])
			verdict := judge(m, va, vb, spread)
			if verdict == verdictBreach {
				breaches++
			}
			note := ""
			if va == vb {
				note = " (equal)"
			}
			fmt.Fprintf(w, "%-13s %-36s %14.4f %14.4f %10.4f %6.0f%% %6.0f%%  %s%s\n", wl.Name, m.Name, va, vb, vb/va, m.Bound*100, spread*100, verdict, note)
		}
	}
	// Per-layer metrics carry no bound: both values and the ratio, for
	// the reader who wants to know which layer moved.
	for _, wl := range bf.Workloads {
		ra, rb := a.find(wl.Name, 1), b.find(wl.Name, 1)
		for _, m := range bf.PerLayer {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			if va == 0 && vb == 0 {
				continue
			}
			fmt.Fprintf(w, "%-13s %-36s %14.4f %14.4f %10.4f %7s %7s  %s\n", wl.Name, m.Name, va, vb, ratio(vb, va), "-", "-", "layer")
		}
	}
	return breaches, nil
}
