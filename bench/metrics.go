package main

// The metric tables. BENCHMARK.json at the repository root repeats
// name, unit, direction and bound (a test keeps the two in step); the
// layer, source and "should move" columns live here and in README.md.

// Sources of a per-layer metric.
const (
	srcMicro  = "µ" // in-process microbenchmark with a fixed iteration count
	srcDelta  = "Δ" // daemon /metrics counter delta over the count pass
	srcTraced = "T" // traced in-process run
	srcTimed  = "t" // timed pass on the real cluster
)

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only
	src    string  // per-layer only
	moves  string  // what it should move, on which workload
}

// The end-to-end metrics: what a client of the cluster sees. The
// timing bounds are the widest the contract allows, and a run reports
// its best cycle on them (see bestOf), because this sandbox's speed
// itself drifts by tens of per cent over minutes (see README.md, "How
// steady it is").
var endToEndDefs = []metricDef{
	{name: "read_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25, moves: "correct reads completed per second of a cycle's timed pass, both clients summed; best of the 3 cycles"},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25, moves: "median read latency of a cycle's timed pass; best cycle"},
	{name: "read_p99_ms", unit: "ms", better: "lower", bound: 0.25, moves: "99th percentile of the same reads (thousands per cycle, so tens beyond it); best cycle"},
	{name: "write_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25, moves: "acked INSERTs per second by client 0. mixed_rw: a cycle's timed pass (fsync always, beside client 1's reads). Other workloads: a burst of 800 after each timed pass (memory only, alone). Best cycle"},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25, moves: "INSERT line to OK, same writes as write_ops_per_s; best cycle"},
	{name: "write_p99_ms", unit: "ms", better: "lower", bound: 0.25, moves: "same writes; best cycle"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, moves: "utime+stime of the three daemons over a cycle's timed pass (from /proc) per op completed; best cycle"},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.10, moves: "sum of the daemons' peak resident sets (VmHWM) at the end of a timed pass, median of the cycles"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, moves: "boot + preload through both clients + barrier + warm-up, median of the cycles (the build is not in it)"},
}

// Wire message kinds replayed by the codec microbenchmark.
var wireKinds = []string{
	"lookup_req", "multi_lookup_req", "range_msg", "page_req",
	"query_resp_1row", "query_resp_page64", "insert_req", "ack_msg", "gossip_msg",
}

// Overlay message kinds whose handler time the traced run splits out.
var handlerKinds = []string{
	"pgrid.route", "pgrid.mlookup", "pgrid.range", "pgrid.page", "pgrid.resp",
	"pgrid.ack", "pgrid.gossip", "pgrid.gossipack", "pgrid.app",
}

var scanShapes = []string{"range_filter", "paged_scan", "topk", "groupby", "minmaxavg"}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	defs := []metricDef{
		{name: "cmd.ping_rtt_us", unit: "us", better: "lower", layer: "cmd", src: srcMicro, moves: "harness floor under read_p50_ms on every workload"},

		{name: "vql.parse_us", unit: "us", better: "lower", layer: "vql", src: srcMicro, moves: "read_p50_ms on point_lookup"},
		{name: "vql.parse_allocs", unit: "count", better: "lower", layer: "vql", src: srcMicro, moves: "cpu_ms_per_op on point_lookup"},

		{name: "optimizer.plan_us", unit: "us", better: "lower", layer: "optimizer", src: srcMicro, moves: "read_p50_ms on point_lookup, index_join"},
		{name: "optimizer.plan_allocs", unit: "count", better: "lower", layer: "optimizer", src: srcMicro, moves: "cpu_ms_per_op on point_lookup, index_join"},

		{name: "core.nonet_us_per_op", unit: "us", better: "lower", layer: "core", src: srcMicro, moves: "cpu_ms_per_op on all; its gap to read_p50_ms is codec + netx + kernel"},
		{name: "core.nonet_allocs_per_op", unit: "count", better: "lower", layer: "core", src: srcMicro, moves: "cpu_ms_per_op on all"},

		{name: "physical.run_self_us", unit: "us", better: "lower", layer: "physical", src: srcTraced, moves: "read_p50_ms and cpu_ms_per_op on index_join, scan_agg"},
		{name: "physical.rows_per_op", unit: "count", better: "lower", layer: "physical", src: srcTraced, moves: "none: it states the answer size the other numbers are per"},
	}
	for _, s := range scanShapes {
		defs = append(defs, metricDef{name: "physical.shape." + s + ".p50_ms", unit: "ms", better: "lower", layer: "physical", src: srcTimed, moves: "read_p50_ms (range_filter) and read_p99_ms (paged_scan) on scan_agg; 0 elsewhere"})
	}
	defs = append(defs,
		metricDef{name: "pgrid.msgs_per_op", unit: "count", better: "lower", layer: "pgrid", src: srcTraced, moves: "netx.frames_per_op and read_p50_ms on point_lookup, index_join"},
		metricDef{name: "pgrid.forwarded_per_op", unit: "count", better: "lower", layer: "pgrid", src: srcDelta, moves: "netx.frames_per_op on point_lookup (routing-cache misses forward)"},
		metricDef{name: "pgrid.remote_share", unit: "ratio", better: "higher", layer: "pgrid", src: srcTraced, moves: "none: asserted >= 0.4 on point_lookup so the workload leaves the coordinator's process"},
		metricDef{name: "pgrid.route_cache.hit_ratio", unit: "ratio", better: "higher", layer: "pgrid", src: srcDelta, moves: "netx.frames_per_op and read_p50_ms on point_lookup, index_join"},
		metricDef{name: "pgrid.probe_groups_per_op", unit: "count", better: "lower", layer: "pgrid", src: srcDelta, moves: "netx.frames_per_op on index_join"},
		metricDef{name: "pgrid.pages_per_op", unit: "count", better: "lower", layer: "pgrid", src: srcDelta, moves: "netx.frames_per_op and read_p99_ms on scan_agg; about 0 elsewhere"},
		metricDef{name: "pgrid.retries_per_op", unit: "count", better: "lower", layer: "pgrid", src: srcDelta, moves: "must be 0 when healthy; read_p99_ms anywhere when not"},
		metricDef{name: "pgrid.flow.stall_ratio", unit: "ratio", better: "lower", layer: "pgrid", src: srcDelta, moves: "read_p99_ms on scan_agg, write_p99_ms on mixed_rw"},
		metricDef{name: "pgrid.gossip_applied_per_write", unit: "count", better: "lower", layer: "pgrid", src: srcDelta, moves: "netx.frames_per_op and cpu_ms_per_op on mixed_rw"},
		metricDef{name: "pgrid.handler_us_per_msg", unit: "us", better: "lower", layer: "pgrid", src: srcTraced, moves: "cpu_ms_per_op on all"},
	)
	for _, k := range handlerKinds {
		defs = append(defs, metricDef{name: "pgrid.handler_us." + k, unit: "us", better: "lower", layer: "pgrid", src: srcTraced, moves: "cpu_ms_per_op where that message kind flows"})
	}
	for _, k := range wireKinds {
		defs = append(defs,
			metricDef{name: "wire.roundtrip_us." + k, unit: "us", better: "lower", layer: "wire", src: srcMicro, moves: "cpu_ms_per_op and read_p50_ms on point_lookup (per-message cost)"},
			metricDef{name: "wire.roundtrip_allocs." + k, unit: "count", better: "lower", layer: "wire", src: srcMicro, moves: "cpu_ms_per_op on all"},
			metricDef{name: "wire.bytes." + k, unit: "bytes", better: "lower", layer: "wire", src: srcMicro, moves: "netx.wire_bytes_per_op on scan_agg (bytes)"},
			metricDef{name: "wire.model_ratio." + k, unit: "ratio", better: "lower", layer: "wire", src: srcMicro, moves: "none: encoded bytes over the payload's WireSize(), the simulator's model"},
		)
	}
	defs = append(defs,
		metricDef{name: "wire.us_per_op", unit: "us", better: "lower", layer: "wire", src: srcTraced, moves: "the most a faster codec can save of read_p50_ms on point_lookup"},

		metricDef{name: "netx.frame_ns.64", unit: "ns", better: "lower", layer: "netx", src: srcMicro, moves: "read_p50_ms on point_lookup"},
		metricDef{name: "netx.frame_ns.16k", unit: "ns", better: "lower", layer: "netx", src: srcMicro, moves: "cpu_ms_per_op on scan_agg"},
		metricDef{name: "netx.frame_allocs", unit: "count", better: "lower", layer: "netx", src: srcMicro, moves: "cpu_ms_per_op on all"},
		metricDef{name: "netx.echo_rtt_us", unit: "us", better: "lower", layer: "netx", src: srcMicro, moves: "read_p50_ms on point_lookup"},
		metricDef{name: "netx.transit_us_per_frame", unit: "us", better: "lower", layer: "netx", src: srcTraced, moves: "read_p50_ms on point_lookup; read_p99_ms on scan_agg (queueing)"},
		metricDef{name: "netx.frames_per_op", unit: "count", better: "lower", layer: "netx", src: srcDelta, moves: "read_p50_ms on point_lookup, index_join (round trips); repeats exactly on scan_agg, follows replica choice elsewhere"},
		metricDef{name: "netx.wire_bytes_per_op", unit: "bytes", better: "lower", layer: "netx", src: srcDelta, moves: "cpu_ms_per_op and read_p99_ms on scan_agg"},
		metricDef{name: "netx.drops", unit: "count", better: "lower", layer: "netx", src: srcDelta, moves: "must be 0"},
		metricDef{name: "netx.dials", unit: "count", better: "lower", layer: "netx", src: srcDelta, moves: "0 in steady state: connections are pooled"},

		metricDef{name: "store.put_ns", unit: "ns", better: "lower", layer: "store", src: srcMicro, moves: "write_ops_per_s on mixed_rw"},
		metricDef{name: "store.put_allocs", unit: "count", better: "lower", layer: "store", src: srcMicro, moves: "cpu_ms_per_op on mixed_rw"},
		metricDef{name: "store.lookup_ns", unit: "ns", better: "lower", layer: "store", src: srcMicro, moves: "cpu_ms_per_op on point_lookup"},
		metricDef{name: "store.scan_ns_per_row", unit: "ns", better: "lower", layer: "store", src: srcMicro, moves: "cpu_ms_per_op on scan_agg"},

		metricDef{name: "wal.append_us.always", unit: "us", better: "lower", layer: "wal", src: srcMicro, moves: "write_p50_ms and write_ops_per_s on mixed_rw only"},
		metricDef{name: "wal.append_us.interval", unit: "us", better: "lower", layer: "wal", src: srcMicro, moves: "none at the benchmark's -fsync always"},
		metricDef{name: "wal.append_us.off", unit: "us", better: "lower", layer: "wal", src: srcMicro, moves: "none at the benchmark's -fsync always: the log's own cost without the disk"},
		metricDef{name: "wal.group_append_us.always", unit: "us", better: "lower", layer: "wal", src: srcMicro, moves: "write_ops_per_s on mixed_rw (two writers share fsyncs)"},
		metricDef{name: "wal.fsyncs_per_write", unit: "count", better: "lower", layer: "wal", src: srcDelta, moves: "write_p50_ms on mixed_rw; 0 elsewhere"},
		metricDef{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower", layer: "wal", src: srcDelta, moves: "write_ops_per_s on mixed_rw; 0 elsewhere"},
		metricDef{name: "wal.logapply_us_per_write", unit: "us", better: "lower", layer: "wal", src: srcTraced, moves: "write_p50_ms on mixed_rw; 0 elsewhere"},

		metricDef{name: "agg.merge_ns_per_group", unit: "ns", better: "lower", layer: "agg", src: srcMicro, moves: "cpu_ms_per_op on scan_agg"},
		metricDef{name: "agg.state_bytes_per_group", unit: "bytes", better: "lower", layer: "agg", src: srcMicro, moves: "netx.wire_bytes_per_op on scan_agg"},

		metricDef{name: "trace.overhead_ratio", unit: "ratio", better: "higher", layer: "trace", src: srcTraced, moves: "none: traced over untraced read_ops_per_s; it bounds what the T numbers are worth"},
	)
	return defs
}
