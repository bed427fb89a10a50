package main

// The --trace 1 run: every per-layer metric of one workload. It has
// three parts, none of which feeds an end-to-end metric:
//
//	Δ  the real cluster again, one set-up and a half-length timed pass,
//	   for the daemons' counter deltas over the count pass;
//	µ  in-process microbenchmarks of single layers;
//	T  the in-process cluster twice for a quarter of the time each,
//	   untraced and traced, for the self-time table and the overhead.

import (
	"fmt"
	"path/filepath"
	"time"
)

func runLayers(env *environment, o options, cfg runConfig) (*result, error) {
	res := newResult(env, o, perLayerDefs)
	cfg.cycles = 1
	cfg.countOps = countOps
	if o.smoke {
		cfg.countOps = 100
	}
	cfg.seconds = float64(o.seconds) / 2
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	m, err := r.run(true)
	if err != nil {
		return nil, err
	}
	res.absorb(m)
	res.deltaMetrics(m)

	if err := microQueryPath(res, r, r.oracle); err != nil {
		return nil, err
	}
	if err := microNetx(res); err != nil {
		return nil, err
	}
	microStore(res, r.ds)
	if err := microWAL(res, cfg.tmpDir); err != nil {
		return nil, err
	}
	microAgg(res, r.ds)

	quarter := time.Duration(float64(o.seconds) / 4 * float64(time.Second))
	plain, _, err := r.runInproc(nil, quarter)
	if err != nil {
		return nil, err
	}
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Failures = append(res.Failures, plain.failures...)

	t := newTracer()
	traced, spans, err := r.runInproc(t, quarter)
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Failures = append(res.Failures, traced.failures...)
	if err := microWire(res, t.captured); err != nil {
		return nil, err
	}
	lt := fold(spans)
	res.tracedMetrics(lt, traced, plain)
	res.LayerTable = lt.table()
	res.Samples["traced_ops"] = lt.ops
	res.Samples["traced_spans"] = len(spans)
	if err := writeTrace(filepath.Join(env.outDir, "trace-"+o.workload+".json"), spans); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// runInproc boots the in-process cluster (traced when t != nil),
// preloads and warms it, and runs the workload for d.
func (r *runner) runInproc(t *tracer, d time.Duration) (inprocPass, []span, error) {
	dataDir := ""
	if r.writes() {
		r.dataN++
		dataDir = filepath.Join(r.cfg.tmpDir, fmt.Sprintf("inproc-%d", r.dataN))
		trackDir(dataDir)
	}
	c, err := newInproc(t, dataDir)
	if err != nil {
		return inprocPass{}, nil, err
	}
	defer c.close()
	if err := c.load(r.ds); err != nil {
		return inprocPass{}, nil, err
	}
	if err := c.calibrate(r.ds); err != nil {
		return inprocPass{}, nil, err
	}
	// Warm-up, as on the real cluster; its spans are dropped.
	for client := 0; client < numClients; client++ {
		if r.writes() && client == 0 {
			continue // the writer has no cache to warm
		}
		st := newReadStream(r.pool, r.streamSeed(client))
		for i := 0; i < r.cfg.warmOps; i++ {
			if _, err := c.stacks[client].query(r.pool.texts[st.next()], 0); err != nil {
				return inprocPass{}, nil, err
			}
		}
	}
	if err := c.barrier(); err != nil {
		return inprocPass{}, nil, err
	}
	if t != nil {
		t.reset()
	}
	p, err := c.run(r, t, d)
	if err != nil {
		return p, nil, err
	}
	if err := c.barrier(); err != nil {
		return p, nil, err
	}
	var spans []span
	if t != nil {
		t.mu.Lock()
		spans = t.spans
		t.mu.Unlock()
	}
	return p, spans, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deltaMetrics derives the Δ metrics (and the two measured on the
// real cluster's timed pass) from a measurement.
func (r *result) deltaMetrics(m *measurement) {
	count := m.counts[0] // this mode runs one cycle
	d := count.delta
	ops := count.ops()
	writes := float64(count.writes)
	r.Samples["count_pass_ops"] = int(ops)
	r.set("cmd.ping_rtt_us", m.pingUS)
	r.set("pgrid.forwarded_per_op", ratio(d["unistore_pgrid_forwarded"], ops))
	r.set("pgrid.route_cache.hit_ratio", ratio(d["unistore_pgrid_route_cache_hits"], d["unistore_pgrid_route_cache_hits"]+d["unistore_pgrid_route_cache_misses"]))
	r.set("pgrid.probe_groups_per_op", ratio(d["unistore_pgrid_probe_groups"], ops))
	r.set("pgrid.pages_per_op", ratio(d["unistore_pgrid_pages_served"], ops))
	retries := d["unistore_pgrid_probe_retries"] + d["unistore_pgrid_scan_retries"] + d["unistore_pgrid_page_pull_hedges"] + d["unistore_pgrid_write_retries"]
	r.set("pgrid.retries_per_op", ratio(retries, ops))
	r.set("pgrid.flow.stall_ratio", ratio(d["unistore_pgrid_flow_stalls"], d["unistore_pgrid_flow_bulk_sends"]))
	r.set("pgrid.gossip_applied_per_write", ratio(d["unistore_pgrid_gossip_applied"], writes))
	drops := d["unistore_net_drops_queue_ctrl"] + d["unistore_net_drops_queue_bulk"] + d["unistore_net_drops_dead"] + d["unistore_net_drops_inbox"]
	r.set("netx.frames_per_op", ratio(d["unistore_net_frames_out"], ops))
	r.set("netx.wire_bytes_per_op", ratio(d["unistore_net_bytes_out"], ops))
	r.set("netx.drops", drops)
	r.set("netx.dials", d["unistore_net_dials"])
	r.set("wal.fsyncs_per_write", ratio(d["unistore_wal_syncs"], writes))
	// User bytes of one write: OID, attribute and value as the client sent them.
	userBytes := writes * float64(len("w-0000000")+len(writeAttr)+len("v0000000"))
	r.set("wal.bytes_per_user_byte", ratio(d["unistore_wal_log_bytes"], userBytes))
	for _, shape := range scanShapes {
		if lat := m.classLat[shape]; len(lat) > 0 {
			r.set("physical.shape."+shape+".p50_ms", percentile(sortedCopy(lat), 50))
		}
	}
}

// tracedMetrics derives the T metrics from the folded traced pass.
func (r *result) tracedMetrics(lt layerTimes, traced, plain inprocPass) {
	ops := float64(max(lt.ops, 1))
	r.set("physical.run_self_us", float64(lt.selfNs[spanRun])/1e3/ops)
	r.set("physical.rows_per_op", ratio(float64(traced.rows), float64(traced.reads)))
	r.set("pgrid.msgs_per_op", float64(lt.sends)/ops)
	r.set("pgrid.remote_share", float64(lt.remoteOps)/ops)
	var hNs int64
	var hCnt int
	for kind, ns := range lt.handlerNs {
		hNs += ns
		hCnt += lt.handlerCnt[kind]
	}
	r.set("pgrid.handler_us_per_msg", ratio(float64(hNs)/1e3, float64(hCnt)))
	for _, kind := range handlerKinds {
		r.set("pgrid.handler_us."+kind, ratio(float64(lt.handlerNs[kind])/1e3, float64(lt.handlerCnt[kind])))
	}
	r.set("wire.us_per_op", float64(lt.selfNs[spanEncode]+lt.selfNs[spanDecode])/1e3/ops)
	r.set("netx.transit_us_per_frame", ratio(float64(lt.transitNs)/1e3, float64(lt.transitCnt)))
	r.set("wal.logapply_us_per_write", ratio(float64(lt.logNs)/1e3, float64(traced.writes)))
	r.set("trace.overhead_ratio", ratio(float64(traced.reads)/traced.seconds, float64(plain.reads)/plain.seconds))
	r.TracedAccounted = lt.accounted()
}
