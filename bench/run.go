package main

// One workload run on the real cluster, as a few cycles of: set-up
// (boot, preload through both clients, barrier, warm-up), for the
// per-layer run a count pass with one client at a time, a timed
// closed-loop pass with two clients, verification, teardown. Everything is observed from outside
// the daemons.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const numClients = 2 // nproc of the reference box; client i owns daemon i's pipe, daemon 2 only serves

type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // timed pass
	persons  int
	cycles   int // fresh clusters the run is spread over
	warmOps  int // per client, part of set-up
	countOps int // per client, count pass; 0: no count pass (the end-to-end run reads no counter)
	burstOps int // read-only workloads: acked INSERTs after each timed pass
	sample   int // mixed_rw: acked writes read back, per read-back round
	bin      string
	logDir   string
	tmpDir   string
}

// measurement is what one run observed, before any metric is derived.
type measurement struct {
	triples  int
	poolSize int

	// perCycle holds, by end-to-end metric name, each cycle's own value.
	// The result reports one of them (result.endToEnd says which); how far
	// they disagree is the run's own spread on that metric.
	perCycle map[string][]float64
	reads    int                  // correct reads of the timed passes
	writes   int                  // acked writes of the timed passes (mixed_rw) or of the write bursts
	classLat map[string][]float64 // ms per shape class, all cycles

	counts []countResult // one per cycle that had a count pass
	pingUS float64       // median PING→PONG on daemon 0's pipe

	tally
}

// countResult is one cycle's count pass.
type countResult struct {
	reads, writes int
	delta         map[string]float64 // Σ daemons' /metrics deltas over the pass
}

func (c countResult) ops() float64 { return float64(c.reads + c.writes) }

// tally counts operations against failures. Each client goroutine
// fills its own and the runner merges them after the pass.
type tally struct {
	attempted int
	failed    int
	failures  []string // first few, for the report
}

func (m *measurement) cycleValue(metric string, v float64) {
	m.perCycle[metric] = append(m.perCycle[metric], v)
}

// cycleOps records one cycle's throughput and latency percentiles of
// kind ("read" or "write"): the ops whose latencies are lat completed
// within seconds.
func (m *measurement) cycleOps(kind string, lat []float64, seconds float64) {
	if len(lat) == 0 {
		return
	}
	s := sortedCopy(lat)
	m.cycleValue(kind+"_ops_per_s", float64(len(lat))/seconds)
	m.cycleValue(kind+"_p50_ms", percentile(s, 50))
	m.cycleValue(kind+"_p99_ms", percentile(s, 99))
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

type runner struct {
	cfg   runConfig
	ds    *dataset
	pool  *pool
	lines []string   // "QUERY "+pool text
	want  [][]string // oracle rows per pool query
	m     *measurement

	oracle *oracle

	acked map[string]string // mixed_rw: last acked value per written OID on the current cluster (client 0 is the only writer)
	dataN int
}

func newRunner(cfg runConfig) (*runner, error) {
	ds := generateDataset(cfg.persons)
	p := buildPool(cfg.workload, ds)
	o := newOracle(ds)
	want, err := o.answers(p)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, ds: ds, pool: p, want: want, oracle: o, acked: map[string]string{}}
	for _, q := range p.texts {
		r.lines = append(r.lines, "QUERY "+q)
	}
	r.m = &measurement{triples: len(ds.triples), poolSize: len(p.texts), classLat: map[string][]float64{}, perCycle: map[string][]float64{}}
	return r, nil
}

func (r *runner) writes() bool { return r.cfg.workload == "mixed_rw" }

// streamSeed keeps the clients' streams distinct and reproducible.
// Warm-up and count pass replay the prefix of stream (client, 0) on
// every cycle; cycle i's timed pass runs stream (client, i+1).
func (r *runner) streamSeed(client int) int64 { return r.cfg.seed*1000 + int64(client) }

func (r *runner) timedSeed(client, cycle int) int64 {
	return r.streamSeed(client) + int64(10*(cycle+1))
}

// pass is one client's share of a pass.
type pass struct {
	lat   []float64
	class []int // shape class per sample (reads)
}

// runReads drives one client's read stream until stop says so. With
// full set, every answer's sorted rows are compared to the oracle's;
// otherwise only the row count is.
func (r *runner) runReads(d *daemon, st *readStream, full bool, stop func(i int) bool, t *tally) (pass, error) {
	var p pass
	for i := 0; !stop(i); i++ {
		q := st.next()
		t0 := time.Now()
		rows, ok, err := d.do(r.lines[q])
		t1 := time.Now()
		if err != nil {
			return p, err
		}
		t.attempted++
		switch {
		case !ok:
			t.fail("daemon %d: ERR on %s", d.proc, r.pool.texts[q])
		case full && !sameRows(rows, r.want[q]):
			t.fail("daemon %d: wrong rows on %s: got %d want %d", d.proc, r.pool.texts[q], len(rows), len(r.want[q]))
		case len(rows) != len(r.want[q]):
			t.fail("daemon %d: %d rows on %s, want %d", d.proc, len(rows), r.pool.texts[q], len(r.want[q]))
		default:
			p.lat = append(p.lat, float64(t1.Sub(t0))/1e6)
			p.class = append(p.class, r.pool.classOf[q])
		}
	}
	return p, nil
}

// runWrites drives one client's acked-INSERT stream.
func (r *runner) runWrites(d *daemon, ws *writeStream, stop func(i int) bool, t *tally) (pass, error) {
	var p pass
	for i := 0; !stop(i); i++ {
		oid, val := ws.next()
		t0 := time.Now()
		_, ok, err := d.do(writeLine(oid, val))
		t1 := time.Now()
		if err != nil {
			return p, err
		}
		t.attempted++
		if !ok {
			t.fail("daemon %d: INSERT %s not acked", d.proc, oid)
			continue
		}
		r.acked[oid] = val
		p.lat = append(p.lat, float64(t1.Sub(t0))/1e6)
	}
	return p, nil
}

// clientRun runs fn once per client, in parallel, each with its own
// tally, and merges the tallies into the measurement.
func (r *runner) clientRun(fn func(client int, t *tally) error) error {
	tallies := make([]tally, numClients)
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c, &tallies[c])
		}(c)
	}
	wg.Wait()
	for c := range tallies {
		r.m.merge(&tallies[c])
		if errs[c] != nil {
			return errs[c]
		}
	}
	return nil
}

// setUp boots a cluster, preloads it through both clients, drains it
// and warms it up. It is timed as a whole.
func (r *runner) setUp() (*cluster, error) {
	t0 := time.Now()
	dataDir := ""
	if r.writes() {
		r.dataN++
		dataDir = filepath.Join(r.cfg.tmpDir, fmt.Sprintf("data-%d", r.dataN))
		trackDir(dataDir)
	}
	c, err := startCluster(r.cfg.bin, r.cfg.logDir, dataDir)
	if err != nil {
		return nil, err
	}
	if err := r.preloadAndWarm(c); err != nil {
		c.stop()
		return nil, err
	}
	r.m.cycleValue("setup_s", time.Since(t0).Seconds())
	return c, nil
}

func (r *runner) preloadAndWarm(c *cluster) error {
	err := r.clientRun(func(client int, t *tally) error {
		d := c.daemons[client]
		for i := client; i < len(r.ds.triples); i += numClients {
			_, ok, err := d.do(insertLine(r.ds.triples[i]))
			if err != nil {
				return err
			}
			t.attempted++
			if !ok {
				t.fail("daemon %d: preload INSERT not acked", d.proc)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := c.barrierAll(); err != nil {
		return err
	}
	// Warm-up: a fixed op count, one client at a time, so the routing
	// caches and replica choices the passes start from do not depend on
	// how the two clients happened to interleave. Every answer's full rows
	// are checked here; the timed pass checks row counts.
	for client := 0; client < numClients; client++ {
		if r.writes() && client == 0 {
			continue // the writer has no cache to warm
		}
		_, err := r.runReads(c.daemons[client], newReadStream(r.pool, r.streamSeed(client)), true,
			func(i int) bool { return i >= r.cfg.warmOps }, &r.m.tally)
		if err != nil {
			return err
		}
	}
	return nil
}

// countPass replays a fixed prefix of every client's stream, one
// client at a time, between two /metrics scrapes. It runs on the quiet
// cluster right after set-up: with one op in flight and no history of
// contention, replica choice and therefore the daemons' frame, byte
// and protocol counters repeat.
func (r *runner) countPass(c *cluster) error {
	before, err := c.scrapeSum()
	if err != nil {
		return err
	}
	n := r.cfg.countOps
	stop := func(i int) bool { return i >= n }
	reads, writes := 0, 0
	for client := 0; client < numClients; client++ {
		if r.writes() && client == 0 {
			p, err := r.runWrites(c.daemons[0], newWriteStream(r.streamSeed(0)), stop, &r.m.tally)
			if err != nil {
				return err
			}
			writes += len(p.lat)
			continue
		}
		p, err := r.runReads(c.daemons[client], newReadStream(r.pool, r.streamSeed(client)), true, stop, &r.m.tally)
		if err != nil {
			return err
		}
		reads += len(p.lat)
	}
	if err := c.barrierAll(); err != nil {
		return err
	}
	after, err := c.scrapeSum()
	if err != nil {
		return err
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	r.m.counts = append(r.m.counts, countResult{reads: reads, writes: writes, delta: delta})
	return nil
}

// timedPass is the closed loop: every client sends its next op when
// the previous one has answered, for d.
func (r *runner) timedPass(c *cluster, d time.Duration, cycle int) error {
	passes := make([]pass, numClients)
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(d)
	stop := func(int) bool { return !time.Now().Before(deadline) }
	err = r.clientRun(func(client int, t *tally) error {
		var err error
		if r.writes() && client == 0 {
			passes[client], err = r.runWrites(c.daemons[0], newWriteStream(r.timedSeed(0, cycle)), stop, t)
		} else {
			passes[client], err = r.runReads(c.daemons[client], newReadStream(r.pool, r.timedSeed(client, cycle)), false, stop, t)
		}
		return err
	})
	if err != nil {
		return err
	}
	// Every op that started before the deadline counts, so the pass lasted
	// until the last of them answered.
	seconds := time.Since(start).Seconds()
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return err
	}
	r.m.cycleValue("rss_mb", rss)
	var reads []float64
	ops := 0
	for client, p := range passes {
		ops += len(p.lat)
		if r.writes() && client == 0 {
			r.m.writes += len(p.lat)
			r.m.cycleOps("write", p.lat, seconds)
			continue
		}
		reads = append(reads, p.lat...)
		for i, ci := range p.class {
			name := r.pool.classes[ci].name
			r.m.classLat[name] = append(r.m.classLat[name], p.lat[i])
		}
	}
	r.m.reads += len(reads)
	r.m.cycleOps("read", reads, seconds)
	if ops > 0 {
		r.m.cycleValue("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(ops))
	}
	return nil
}

// writeBurst gives the read-only workloads their write numbers. The
// issue wanted write_* on mixed_rw only; the driver's contract wants
// "every end_to_end metric" on every --trace 0 run and "metrics that
// are never 0", so a workload without a writer has to measure writes
// somewhere. Client 0 alone sends a fixed count of acked INSERTs to the
// warm, memory-only cluster once the timed pass is over, where it
// cannot disturb a read. (The preload is the same write path, but on
// processes still growing their heaps its timing is several times
// noisier.)
func (r *runner) writeBurst(c *cluster, cycle int) error {
	n := r.cfg.burstOps
	start := time.Now()
	p, err := r.runWrites(c.daemons[0], newWriteStream(r.timedSeed(0, cycle)), func(i int) bool { return i >= n }, &r.m.tally)
	if err != nil {
		return err
	}
	r.m.writes += len(p.lat)
	r.m.cycleOps("write", p.lat, time.Since(start).Seconds())
	return nil
}

// pingFloor measures the pipe round trip the harness itself adds.
func (r *runner) pingFloor(d *daemon) error {
	const pings = 300
	lat := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if _, ok, err := d.do("PING"); err != nil || !ok {
			return fmt.Errorf("daemon %d: PING failed: %v", d.proc, err)
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	r.m.pingUS = median(lat)
	return nil
}

// readBack checks a seeded sample of acked writes through daemon d:
// every key must answer its last acked value.
func (r *runner) readBack(d *daemon, round int64) error {
	oids := make([]string, 0, len(r.acked))
	for oid := range r.acked {
		oids = append(oids, oid)
	}
	sort.Strings(oids)
	rng := rand.New(rand.NewSource(r.cfg.seed*7 + round))
	rng.Shuffle(len(oids), func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
	if len(oids) > r.cfg.sample {
		oids = oids[:r.cfg.sample]
	}
	for _, oid := range oids {
		rows, ok, err := d.do("QUERY " + readBackQuery(oid))
		if err != nil {
			return err
		}
		r.m.attempted++
		if !ok || len(rows) != 1 || rows[0] != r.acked[oid] {
			r.m.fail("daemon %d: acked write %s=%s read back as %v", d.proc, oid, r.acked[oid], rows)
		}
	}
	return nil
}

// verifyDurability: after a barrier, daemon 1 is SIGKILLed; every
// sampled acked write must be readable through the daemon that never
// took a client while daemon 1 is down, and again through daemon 1
// once it has restarted on its WAL.
func (r *runner) verifyDurability(c *cluster) error {
	if err := c.barrierAll(); err != nil {
		return err
	}
	c.daemons[1].kill()
	if err := r.readBack(c.daemons[2], 1); err != nil {
		return err
	}
	if err := c.restart(1); err != nil {
		return err
	}
	if err := c.barrierAll(); err != nil {
		return err
	}
	return r.readBack(c.daemons[1], 2)
}

// run executes cfg.cycles cycles, each on a fresh cluster, so that one
// process's luck with memory layout or scheduling, and one stretch of
// the host's time, is one sample among several. The timed pass is split
// evenly over the cycles. withPing adds the PING
// floor measurement (a per-layer metric).
func (r *runner) run(withPing bool) (*measurement, error) {
	slice := time.Duration(r.cfg.seconds / float64(r.cfg.cycles) * float64(time.Second))
	for i := 0; i < r.cfg.cycles; i++ {
		if err := r.cycle(i, slice, withPing && i == 0); err != nil {
			return nil, err
		}
	}
	return r.m, nil
}

// cycle is set-up → count pass (per-layer run only) → timed pass, then
// the write burst or, on the last mixed_rw cycle, the durability check.
func (r *runner) cycle(i int, slice time.Duration, ping bool) error {
	c, err := r.setUp()
	if err != nil {
		return err
	}
	defer c.stop()
	r.acked = map[string]string{} // a fresh cluster holds none of the earlier cycles' writes
	if ping {
		if err := r.pingFloor(c.daemons[0]); err != nil {
			return err
		}
	}
	if r.cfg.countOps > 0 {
		if err := r.countPass(c); err != nil {
			return err
		}
	}
	if err := r.timedPass(c, slice, i); err != nil {
		return err
	}
	if !r.writes() {
		return r.writeBurst(c, i)
	}
	if i == r.cfg.cycles-1 {
		return r.verifyDurability(c)
	}
	return nil
}
