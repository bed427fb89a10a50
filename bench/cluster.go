package main

// The real cluster: three unistore daemons on loopback TCP, driven
// through the daemon's public line protocol (stdin/stdout), its
// /metrics endpoint and /proc. Nothing here reaches into the daemon.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// The fixed cluster shape every workload runs on.
const (
	clusterProcs    = 3
	clusterPeers    = 16
	clusterReplicas = 2
	clusterPage     = 64
	clusterSeed     = 1
)

// daemon is one node process plus the client end of its pipes.
type daemon struct {
	proc      int
	cmd       *exec.Cmd
	in        *bufio.Writer
	out       *bufio.Reader
	addr      string
	debugAddr string
	log       *os.File
}

// cluster is the three daemons of one set-up.
type cluster struct {
	bin     string
	logDir  string
	dataDir string // "" = memory only; else each daemon gets -data dataDir/procN -fsync always
	daemons []*daemon
}

// live tracks what must not outlive the benchmark: daemon process
// groups and temp data dirs. cleanupAll runs on every exit path
// (normal return, failure, panic, SIGINT/SIGTERM, watchdog).
var live struct {
	sync.Mutex
	cmds map[*exec.Cmd]bool
	dirs map[string]bool
}

// teardown serialises cluster.stop and cleanupAll: a data dir may only
// be removed once every daemon writing into it is dead, also when the
// signal handler and the failing main path tear down at the same time.
var teardown sync.Mutex

func trackCmd(c *exec.Cmd) {
	live.Lock()
	defer live.Unlock()
	if live.cmds == nil {
		live.cmds = map[*exec.Cmd]bool{}
	}
	live.cmds[c] = true
}

func trackDir(dir string) {
	live.Lock()
	defer live.Unlock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[dir] = true
}

// killCmd SIGKILLs the daemon's process group and reaps it.
func killCmd(c *exec.Cmd) {
	live.Lock()
	tracked := live.cmds[c]
	delete(live.cmds, c)
	live.Unlock()
	if !tracked {
		return
	}
	_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // the group may already be gone
	_ = c.Wait()                                      // exit status of a killed process is not news
}

func removeDir(dir string) {
	live.Lock()
	tracked := live.dirs[dir]
	delete(live.dirs, dir)
	live.Unlock()
	if tracked {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "bench: remove temp dir:", err)
		}
	}
}

func cleanupAll() {
	teardown.Lock()
	defer teardown.Unlock()
	live.Lock()
	cmds := make([]*exec.Cmd, 0, len(live.cmds))
	for c := range live.cmds {
		cmds = append(cmds, c)
	}
	dirs := make([]string, 0, len(live.dirs))
	for d := range live.dirs {
		dirs = append(dirs, d)
	}
	live.Unlock()
	for _, c := range cmds {
		killCmd(c)
	}
	for _, d := range dirs {
		removeDir(d)
	}
}

func (c *cluster) daemonArgs(pi int, listen, seedAddr string) []string {
	args := []string{
		"-listen", listen,
		"-procs", strconv.Itoa(clusterProcs),
		"-proc", strconv.Itoa(pi),
		"-peers", strconv.Itoa(clusterPeers),
		"-replicas", strconv.Itoa(clusterReplicas),
		"-page", strconv.Itoa(clusterPage),
		"-seed", strconv.Itoa(clusterSeed),
		"-debug", "127.0.0.1:0",
	}
	if c.dataDir != "" {
		args = append(args, "-data", filepath.Join(c.dataDir, fmt.Sprintf("proc%d", pi)), "-fsync", "always")
	}
	if seedAddr != "" {
		args = append(args, "-seeds", seedAddr)
	}
	return args
}

// startCluster boots the three daemons and waits for every READY.
func startCluster(bin, logDir, dataDir string) (*cluster, error) {
	c := &cluster{bin: bin, logDir: logDir, dataDir: dataDir}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	var seedAddr string
	for pi := 0; pi < clusterProcs; pi++ {
		d, err := c.launch(pi, "127.0.0.1:0", seedAddr, fmt.Sprintf("node%d.log", pi))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		if pi == 0 {
			seedAddr = d.addr
		}
	}
	for _, d := range c.daemons {
		if _, err := d.expect("READY "); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// launch starts one daemon and reads its ADDR and DEBUG lines.
func (c *cluster) launch(pi int, listen, seedAddr, logName string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(c.logDir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.bin, c.daemonArgs(pi, listen, seedAddr)...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon %d: %w", pi, err)
	}
	trackCmd(cmd)
	d := &daemon{proc: pi, cmd: cmd, in: bufio.NewWriter(stdin), out: bufio.NewReaderSize(stdout, 1<<16), log: logf}
	line, err := d.expect("ADDR ")
	if err != nil {
		d.kill()
		return nil, err
	}
	d.addr = strings.TrimPrefix(line, "ADDR ")
	if line, err = d.expect("DEBUG "); err != nil {
		d.kill()
		return nil, err
	}
	d.debugAddr = strings.TrimPrefix(line, "DEBUG ")
	return d, nil
}

// expect reads one stdout line and checks its prefix. A hung daemon is
// the watchdog's business (main.go), so there is no per-read timeout.
func (d *daemon) expect(prefix string) (string, error) {
	line, err := d.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("daemon %d: waiting for %q: %w (log: %s)", d.proc, prefix, err, d.log.Name())
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("daemon %d: expected %q, got %q (log: %s)", d.proc, prefix, line, d.log.Name())
	}
	return line, nil
}

// do runs one INSERT/QUERY/PING/BARRIER line. For QUERY it returns the
// result rows (tab-separated, in daemon order); ok is false when the
// daemon answered ERR or the pipe broke.
func (d *daemon) do(line string) (rows []string, ok bool, err error) {
	if _, err := d.in.WriteString(line + "\n"); err != nil {
		return nil, false, fmt.Errorf("daemon %d: %w", d.proc, err)
	}
	if err := d.in.Flush(); err != nil {
		return nil, false, fmt.Errorf("daemon %d: %w", d.proc, err)
	}
	resp, err := d.out.ReadString('\n')
	if err != nil {
		return nil, false, fmt.Errorf("daemon %d: %w", d.proc, err)
	}
	resp = strings.TrimRight(resp, "\r\n")
	if !strings.HasPrefix(line, "QUERY ") {
		return nil, resp == "OK" || resp == "PONG", nil
	}
	if !strings.HasPrefix(resp, "OK ") {
		return nil, false, nil
	}
	n, err := strconv.Atoi(resp[3:])
	if err != nil {
		return nil, false, fmt.Errorf("daemon %d: bad status %q", d.proc, resp)
	}
	rows = make([]string, n)
	for i := range rows {
		row, err := d.out.ReadString('\n')
		if err != nil {
			return nil, false, fmt.Errorf("daemon %d: row %d/%d: %w", d.proc, i, n, err)
		}
		rows[i] = strings.TrimRight(row, "\n")
	}
	dot, err := d.out.ReadString('\n')
	if err != nil || strings.TrimSpace(dot) != "." {
		return nil, false, fmt.Errorf("daemon %d: missing terminator, got %q, %v", d.proc, dot, err)
	}
	return rows, true, nil
}

// barrierAll drains every daemon twice: round one empties each
// process's own queues, round two covers the frames round one pushed
// across processes (replica gossip is asynchronous to insert acks).
func (c *cluster) barrierAll() error {
	for round := 0; round < 2; round++ {
		for _, d := range c.daemons {
			if _, ok, err := d.do("BARRIER"); err != nil || !ok {
				return fmt.Errorf("daemon %d: BARRIER failed: %v", d.proc, err)
			}
		}
	}
	return nil
}

// scrape fetches one daemon's /metrics as name → value (counters and
// gauges; histogram series are skipped).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// scrapeSum sums /metrics over the live daemons.
func (c *cluster) scrapeSum() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range c.daemons {
		m, err := d.scrape()
		if err != nil {
			return nil, fmt.Errorf("daemon %d: scrape: %w", d.proc, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// cpuSeconds is Σ(utime+stime) of the daemons from /proc/<pid>/stat.
func (c *cluster) cpuSeconds() (float64, error) {
	const clkTck = 100 // USER_HZ on Linux
	var ticks float64
	for _, d := range c.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised comm: utime and stime are the
		// 14th and 15th of the whole line, so 12th and 13th after ") ".
		s := string(raw)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		if len(f) < 13 {
			return 0, fmt.Errorf("daemon %d: short /proc stat", d.proc)
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		ticks += ut + st
	}
	return ticks / clkTck, nil
}

// peakRSSMB is Σ VmHWM of the daemons.
func (c *cluster) peakRSSMB() (float64, error) {
	var kb float64
	for _, d := range c.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				kb += v
			}
		}
	}
	return kb / 1024, nil
}

func (d *daemon) kill() {
	killCmd(d.cmd)
	d.log.Close()
}

// restart relaunches a killed daemon on its original address (the
// survivors' routes still point there) and its own -data directory.
func (c *cluster) restart(pi int) error {
	old := c.daemons[pi]
	// The seed is named three times on purpose. The survivors still pool
	// a connection to the killed process; their first write on it (the
	// reply to the restarted daemon's announcement) succeeds locally and
	// is lost, and only the next write sees the reset and redials. A
	// repeated announcement draws a repeated reply.
	seed := c.daemons[0].addr
	d, err := c.launch(pi, old.addr, seed+","+seed+","+seed, fmt.Sprintf("node%d-restart.log", pi))
	if err != nil {
		return err
	}
	if _, err := d.expect("READY "); err != nil {
		d.kill()
		return err
	}
	c.daemons[pi] = d
	return nil
}

// stop kills every daemon and removes the data dir.
func (c *cluster) stop() {
	teardown.Lock()
	defer teardown.Unlock()
	for _, d := range c.daemons {
		d.kill()
	}
	c.daemons = nil
	if c.dataDir != "" {
		removeDir(c.dataDir)
	}
}
