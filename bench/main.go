// Command bench is UniStore's wall-clock benchmark: it boots the real
// 3-process loopback-TCP cluster, drives four closed-loop workloads,
// checks every answer against an in-process simnet oracle and prints
// every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// watchdogAfter bounds a run once the daemon is built: the driver
// allows 180 s, and 900 s for the run that builds first.
const watchdogAfter = 160 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	compare  bool
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op streams (the dataset is fixed)")
	flag.IntVar(&o.seconds, "seconds", 12, "length of the timed pass")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics on the real cluster; 1: per-layer metrics (counter deltas, microbenchmarks, traced in-process run)")
	flag.StringVar(&o.out, "out", "", "with -workload all: write the results to this JSON file (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny run (100 persons, 2 s passes) of every workload, untraced and traced")
	flag.Parse()

	code := 0
	func() {
		// Every exit path stops the daemons and removes temp data: normal
		// return, failure, panic (re-raised after cleanup), signal, watchdog.
		defer cleanupAll()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sig
			cleanupAll()
			os.Exit(130)
		}()
		if err := dispatch(o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}()
	os.Exit(code)
}

func dispatch(o options) error {
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare A.json B.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case o.smoke:
		return smoke(o)
	case o.workload == "all":
		return runAll(o)
	case knownWorkload(o.workload):
		env, err := prepare()
		if err != nil {
			return err
		}
		// Started after prepare: a cold-cache build of the daemon is not
		// part of the run's budget.
		watchdog := time.AfterFunc(watchdogAfter, func() {
			fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded", watchdogAfter)
			cleanupAll()
			os.Exit(3)
		})
		defer watchdog.Stop()
		res, err := runOne(env, o)
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		return res.printContractLine(os.Stdout)
	}
	return fmt.Errorf("unknown -workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
}

// environment is where the run's files live, all inside the checkout.
type environment struct {
	root     string // repository root (holds cmd/unistore)
	buildDir string // bench/.build: binaries, temp data
	outDir   string // bench/out: daemon logs, traces
	bin      string // the daemon
	stamp    stamp
}

// stamp identifies what produced a result.
type stamp struct {
	Commit    string `json:"commit"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

// findRoot finds the checkout: the working directory when started by
// run.sh, its parent when started from bench/ (go test, go run).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "unistore", "daemon.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/unistore in %s or its parent: run from a unistore checkout", wd)
}

// prepare locates the checkout and builds the daemon from source.
func prepare() (*environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	env := &environment{
		root:     root,
		buildDir: filepath.Join(root, "bench", ".build"),
		outDir:   filepath.Join(root, "bench", "out"),
	}
	env.bin = filepath.Join(env.buildDir, "unistore")
	for _, d := range []string{env.buildDir, env.outDir, filepath.Join(env.buildDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	build := exec.Command("go", "build", "-o", env.bin, "./cmd/unistore")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/unistore: %v\n%s", err, out)
	}
	env.stamp = stamp{Commit: commitOf(root), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	return env, nil
}

// commitOf names the checkout's commit; the driver's checkout is not
// a git repository, and then the stamp says so.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// Never look for a repository above the checkout.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
