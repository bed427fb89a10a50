package main

// The traced run (source T). The three node stacks of the cluster are
// hosted in this process, assembled from the same public constructors
// core.NewNode uses, on three netx transports over loopback. With
// tracing on, the public seams are wrapped — netx.Codec,
// pgrid.Transport (Send, and the Handler given to AddNode),
// store.Durability, and the calls into vql, physical and optimizer —
// and one span is recorded per boundary. One op is in flight at a
// time, so every span has exactly one op to belong to. End-to-end
// metrics are never taken from this mode.

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/cost"
	"unistore/internal/netx"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// Span names. A span's layer is the part before the dot, except that
// netx keeps its two halves apart in the table.
const (
	spanOp      = "harness.op"     // one benchmark op, start to verified answer
	spanParse   = "vql.parse"      // vql.ParseQuery
	spanPlan    = "optimizer.plan" // physical.CompileQuery + Optimize + EstimatePlan
	spanRun     = "physical.run"   // Engine.RunPlanCtx
	spanInsert  = "pgrid.insert"   // InsertTripleAcked + wait for the acks
	spanSend    = "netx.send"      // Transport.Send: encode, frame, enqueue
	spanEncode  = "wire.encode"    // Codec.Encode
	spanTransit = "netx.transit"   // encode end → handler start: queues, kernel, inbox
	spanDecode  = "wire.decode"    // Codec.Decode
	spanHandler = "pgrid.handler"  // Handler.HandleMessage
	spanLog     = "wal.logapply"   // Durability.LogApply
)

// selfOrder ranks spans from innermost to outermost. An instant of an
// op's wall time is charged to the first of these that is active: for
// one chain of nested spans that is the span's duration minus what its
// children cover, and with parallel branches the working layer wins
// over the waiting one.
var selfOrder = []string{
	spanEncode, spanDecode, spanLog, spanHandler, spanSend, spanTransit,
	spanRun, spanInsert, spanPlan, spanParse, spanOp,
}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // message kind, or the op's shape class
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Remote bool   `json:"remote,omitempty"` // a send that leaves its transport
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// The op in flight and the span sends made outside any handler
	// belong to. Zero between ops.
	curOp   atomic.Uint64
	curSpan atomic.Uint64

	capMu    sync.Mutex
	captured map[string]any // wire kind → first payload seen
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), captured: map[string]any{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// hctx is the handler a node is running right now: sends and log
// appends made meanwhile are its children.
type hctx struct {
	span, op uint64
}

// stamped is what a traced Send hands the codec in place of the bare
// payload; received is what the codec hands the handler.
type stamped struct {
	payload  any
	send, op uint64
}

type received struct {
	payload   any
	send, op  uint64
	encodeEnd int64
}

const traceHeader = 24 // send span, op, encode end

// tracedCodec wraps pgrid.WireCodec: it times both directions and
// carries the send span across the wire in a 24-byte header.
type tracedCodec struct {
	t *tracer
}

func (c tracedCodec) Encode(payload any) ([]byte, error) {
	st, _ := payload.(stamped) // unstamped: a send that bypassed tracedTransport; keep ids zero
	if st.payload == nil {
		st.payload = payload
	}
	start := c.t.now()
	body, err := pgrid.WireCodec{}.Encode(st.payload)
	end := c.t.now()
	if err != nil {
		return nil, err
	}
	c.t.add(span{ID: c.t.id(), Parent: st.send, Op: st.op, Name: spanEncode, Start: start, End: end})
	c.capture(st.payload)
	out := make([]byte, traceHeader+len(body))
	binary.BigEndian.PutUint64(out[0:], st.send)
	binary.BigEndian.PutUint64(out[8:], st.op)
	binary.BigEndian.PutUint64(out[16:], uint64(end))
	copy(out[traceHeader:], body)
	return out, nil
}

func (c tracedCodec) Decode(data []byte) (any, error) {
	if len(data) < traceHeader {
		return nil, fmt.Errorf("traced codec: short frame")
	}
	rc := received{
		send:      binary.BigEndian.Uint64(data[0:]),
		op:        binary.BigEndian.Uint64(data[8:]),
		encodeEnd: int64(binary.BigEndian.Uint64(data[16:])),
	}
	start := c.t.now()
	p, err := pgrid.WireCodec{}.Decode(data[traceHeader:])
	end := c.t.now()
	if err != nil {
		return nil, err
	}
	c.t.add(span{ID: c.t.id(), Parent: rc.send, Op: rc.op, Name: spanDecode, Start: start, End: end})
	rc.payload = p
	return rc, nil
}

// capture keeps the first payload of every wire kind the codec
// microbenchmark replays. pgrid's message types are unexported, so
// they are told apart by type name and exported fields.
func (c tracedCodec) capture(payload any) {
	kind := wireKindOf(payload)
	if kind == "" {
		return
	}
	c.t.capMu.Lock()
	if _, ok := c.t.captured[kind]; !ok {
		c.t.captured[kind] = payload
	}
	c.t.capMu.Unlock()
}

func wireKindOf(payload any) string {
	typ := fmt.Sprintf("%T", payload)
	if typ == "pgrid.routeEnvelope" {
		// A routed request is measured as it travels: envelope included.
		inner := reflect.ValueOf(payload).FieldByName("Inner")
		if !inner.IsValid() || inner.IsNil() {
			return ""
		}
		typ = fmt.Sprintf("%T", inner.Interface())
	}
	switch typ {
	case "pgrid.lookupReq":
		return "lookup_req"
	case "pgrid.multiLookupReq":
		return "multi_lookup_req"
	case "pgrid.rangeMsg":
		return "range_msg"
	case "pgrid.pageReq":
		return "page_req"
	case "pgrid.insertReq":
		return "insert_req"
	case "pgrid.ackMsg":
		return "ack_msg"
	case "pgrid.gossipMsg":
		return "gossip_msg"
	case "pgrid.queryResp":
		entries := reflect.ValueOf(payload).FieldByName("Entries")
		if !entries.IsValid() {
			return ""
		}
		switch entries.Len() {
		case 1:
			return "query_resp_1row"
		case clusterPage:
			return "query_resp_page64"
		}
	}
	return ""
}

// tracedTransport decorates a netx transport: Send is stamped and
// timed, and every handler registered through AddNode is wrapped. All
// other methods (clock, timers, liveness, randomness, Reserve) are the
// embedded transport's.
type tracedTransport struct {
	*netx.Transport
	t     *tracer
	nodes map[simnet.NodeID]*tracedHandler // hosted here; filled before Start
}

func (tt *tracedTransport) AddNode(h simnet.Handler) simnet.NodeID {
	w := &tracedHandler{inner: h, t: tt.t}
	id := tt.Transport.AddNode(w)
	tt.nodes[id] = w
	return id
}

func (tt *tracedTransport) Send(from, to simnet.NodeID, kind string, payload any) {
	parent, op := tt.t.curSpan.Load(), tt.t.curOp.Load()
	if n := tt.nodes[from]; n != nil {
		if h := n.cur.Load(); h != nil {
			parent, op = h.span, h.op
		}
	}
	id := tt.t.id()
	start := tt.t.now()
	tt.Transport.Send(from, to, kind, stamped{payload: payload, send: id, op: op})
	_, local := tt.nodes[to]
	tt.t.add(span{ID: id, Parent: parent, Op: op, Name: spanSend, Kind: kind, Start: start, End: tt.t.now(), Remote: !local})
}

type tracedHandler struct {
	inner simnet.Handler
	t     *tracer
	cur   atomic.Pointer[hctx]
}

func (h *tracedHandler) HandleMessage(msg simnet.Message) {
	rc, ok := msg.Payload.(received)
	if !ok {
		h.inner.HandleMessage(msg)
		return
	}
	msg.Payload = rc.payload
	start := h.t.now()
	h.t.add(span{ID: h.t.id(), Parent: rc.send, Op: rc.op, Name: spanTransit, Kind: msg.Kind, Start: rc.encodeEnd, End: start})
	id := h.t.id()
	h.cur.Store(&hctx{span: id, op: rc.op})
	h.inner.HandleMessage(msg)
	h.cur.Store(nil)
	h.t.add(span{ID: id, Parent: rc.send, Op: rc.op, Name: spanHandler, Kind: msg.Kind, Start: start, End: h.t.now()})
}

// tracedDurability times LogApply over the peer's *wal.DB.
type tracedDurability struct {
	store.Durability
	t    *tracer
	node *tracedHandler
}

func (d tracedDurability) LogApply(e store.Entry) error {
	parent, op := d.t.curSpan.Load(), d.t.curOp.Load()
	if h := d.node.cur.Load(); h != nil {
		parent, op = h.span, h.op
	}
	start := d.t.now()
	err := d.Durability.LogApply(e)
	d.t.add(span{ID: d.t.id(), Parent: parent, Op: op, Name: spanLog, Start: start, End: d.t.now()})
	return err
}

// --- the in-process cluster -------------------------------------------

// stack is one process's share of the cluster, the bench's own
// rendering of core.Node.
type stack struct {
	proc    int
	tr      *netx.Transport
	peers   []*pgrid.Peer
	engines []*physical.Engine
	opt     *optimizer.Optimizer
	stats   *cost.Stats
	statsMu sync.RWMutex
	seq     atomic.Uint64
	dbs     []*wal.DB
	t       *tracer // nil when untraced
}

// stackReopt mirrors core's nodeReopt: re-optimization of hosted plans
// reads the statistics under the stack's lock.
type stackReopt struct{ s *stack }

func (l stackReopt) Rechoose(steps []physical.Step, tail physical.Tail, bindingCount int, peer *pgrid.Peer) []physical.Step {
	l.s.statsMu.RLock()
	defer l.s.statsMu.RUnlock()
	return l.s.opt.Rechoose(steps, tail, bindingCount, peer)
}

type inproc struct {
	stacks  []*stack
	dataDir string
}

// newInproc assembles the three stacks. t == nil gives the untraced
// twin: plain codec, plain transport, bare WAL.
func newInproc(t *tracer, dataDir string) (*inproc, error) {
	c := &inproc{dataDir: dataDir}
	pcfg := pgrid.DefaultConfig()
	pcfg.PageSize = clusterPage
	specs := pgrid.BalancedSpecs(clusterPeers, clusterReplicas, pcfg, clusterSeed)
	var seeds []string
	for proc := 0; proc < clusterProcs; proc++ {
		var hosted []pgrid.NodeSpec
		for _, s := range specs {
			if int(s.ID)%clusterProcs == proc {
				hosted = append(hosted, s)
			}
		}
		var codec netx.Codec = pgrid.WireCodec{}
		if t != nil {
			codec = tracedCodec{t}
		}
		tr, err := netx.New(netx.Config{Listen: "127.0.0.1:0", Seeds: seeds, Seed: clusterSeed + int64(proc)*7919}, codec)
		if err != nil {
			c.close()
			return nil, err
		}
		s := &stack{proc: proc, tr: tr, t: t}
		c.stacks = append(c.stacks, s)
		var net pgrid.Transport = tr
		var tt *tracedTransport
		if t != nil {
			tt = &tracedTransport{Transport: tr, t: t, nodes: map[simnet.NodeID]*tracedHandler{}}
			net = tt
		}
		if s.peers, err = pgrid.BuildFromSpecs(net, specs, hosted, pcfg); err != nil {
			c.close()
			return nil, err
		}
		if dataDir != "" {
			for i, p := range s.peers {
				dir := filepath.Join(dataDir, fmt.Sprintf("proc%d", proc), fmt.Sprintf("peer-%04d", hosted[i].ID))
				db, err := wal.Open(dir, p.Store(), wal.Options{Sync: wal.SyncAlways})
				if err != nil {
					c.close()
					return nil, err
				}
				s.dbs = append(s.dbs, db)
				if tt != nil {
					p.Store().SetDurability(tracedDurability{Durability: db, t: t, node: tt.nodes[p.ID()]})
				}
			}
		}
		s.stats = cost.DefaultStats(clusterPeers)
		s.stats.Replicas = clusterReplicas
		s.stats.TotalTriples = 0
		s.stats.PageSize = clusterPage
		s.opt = optimizer.New(s.stats, optimizer.DefaultOptions())
		for _, p := range s.peers {
			s.engines = append(s.engines, physical.NewEngine(p, stackReopt{s}))
		}
		tr.Start()
		if proc == 0 {
			seeds = []string{tr.Addr()}
		}
	}
	for _, s := range c.stacks {
		if !s.tr.WaitRoutes(len(specs), 30*time.Second) {
			c.close()
			return nil, fmt.Errorf("in-process cluster: stack %d did not learn every route", s.proc)
		}
	}
	return c, nil
}

func (c *inproc) close() {
	for _, s := range c.stacks {
		s.tr.Close()
		for _, db := range s.dbs {
			db.Close() // the data dir is removed next; a failed close loses nothing anyone reads
		}
	}
	if c.dataDir != "" {
		removeDir(c.dataDir)
	}
}

// barrier is Node.Barrier over all three stacks, twice (see
// cluster.barrierAll).
func (c *inproc) barrier() error {
	for round := 0; round < 2; round++ {
		for _, s := range c.stacks {
			deadline := time.Now().Add(30 * time.Second)
			for {
				if time.Now().After(deadline) {
					return fmt.Errorf("in-process cluster: stack %d did not quiesce", s.proc)
				}
				if !s.tr.Flush(time.Until(deadline)) {
					continue
				}
				pending := 0
				for _, p := range s.peers {
					pending += p.PendingOps()
				}
				if pending == 0 && s.tr.Flush(50*time.Millisecond) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	return nil
}

// begin opens an op span; the returned func closes it.
func (s *stack) begin(name, kind string, parent uint64) (uint64, func()) {
	if s.t == nil {
		return 0, func() {}
	}
	id, start := s.t.id(), s.t.now()
	return id, func() {
		s.t.add(span{ID: id, Parent: parent, Op: s.t.curOp.Load(), Name: name, Kind: kind, Start: start, End: s.t.now()})
	}
}

// insert is core.Node.Insert.
func (s *stack) insert(tr triple.Triple, parent uint64) error {
	id, end := s.begin(spanInsert, "", parent)
	if s.t != nil {
		s.t.curSpan.Store(id)
	}
	p := s.peers[int(s.seq.Load())%len(s.peers)]
	version := s.seq.Add(1)<<10 | uint64(s.proc)
	res := p.InsertTripleAcked(tr, version, nil).Wait(30 * time.Second)
	end()
	if !res.Complete {
		return fmt.Errorf("insert %s/%s not acked", tr.OID, tr.Attr)
	}
	s.statsMu.Lock()
	s.stats.TriplesPerAttr[tr.Attr]++
	s.stats.TotalTriples++
	s.statsMu.Unlock()
	return nil
}

// query is core.Node.Query, with a span around each layer's call. It
// returns the rows as the daemon would print them.
func (s *stack) query(src string, parent uint64) ([]string, error) {
	_, end := s.begin(spanParse, "", parent)
	q, err := vql.ParseQuery(src)
	end()
	if err != nil {
		return nil, err
	}
	_, end = s.begin(spanPlan, "", parent)
	plan, err := physical.CompileQuery(q)
	if err == nil {
		s.statsMu.RLock()
		s.opt.Optimize(plan)
		s.opt.EstimatePlan(plan)
		s.statsMu.RUnlock()
	}
	end()
	if err != nil {
		return nil, err
	}
	id, end := s.begin(spanRun, "", parent)
	if s.t != nil {
		s.t.curSpan.Store(id)
	}
	bs, _ := s.engines[0].RunPlanCtx(context.Background(), plan)
	end()
	vars := q.Vars()
	if len(q.Select) > 0 || len(q.Aggs) > 0 {
		vars = append([]string{}, q.Select...)
		for _, a := range q.Aggs {
			vars = append(vars, a.As)
		}
	}
	rows := make([]string, len(bs))
	cells := make([]string, len(vars))
	for i, b := range bs {
		for j, v := range vars {
			cells[j] = ""
			if val, ok := b[v]; ok {
				cells[j] = val.String()
			}
		}
		rows[i] = strings.Join(cells, "\t")
	}
	return rows, nil
}

// inprocPass is what one in-process pass observed.
type inprocPass struct {
	reads, writes int
	rows          int
	seconds       float64
	tally
}

// load preloads the dataset through stacks 0 and 1 alternately.
func (c *inproc) load(ds *dataset) error {
	for i, tr := range ds.triples {
		if err := c.stacks[i%numClients].insert(tr, 0); err != nil {
			return err
		}
	}
	return c.barrier()
}

// calibrate runs a fixed handful of queries so that the tracing codec
// sees every wire kind whatever the workload is: a value lookup that
// answers one entry, a join whose probes batch once the routing cache
// knows the partition, and a paged scan.
func (c *inproc) calibrate(ds *dataset) error {
	f := indexFacts(ds)
	queries := []string{
		fmt.Sprintf("SELECT ?p WHERE {(?p,'email',%s)}", literal(f.byAttr["email"][0].Val)),
		fmt.Sprintf("SELECT ?n,?e WHERE {(?p,'num_of_pubs',%s) (?p,'name',?n) (?p,'email',?e)}", literal(f.distinctValues("num_of_pubs")[0])),
		"SELECT ?n WHERE {(?p,'name',?n)}",
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			if _, err := c.stacks[0].query(q, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// run drives the workload's streams for d with one op in flight:
// client 0's op on stack 0, then client 1's on stack 1, and so on.
func (c *inproc) run(r *runner, t *tracer, d time.Duration) (inprocPass, error) {
	var p inprocPass
	reads := []*readStream{newReadStream(r.pool, r.streamSeed(0)), newReadStream(r.pool, r.streamSeed(1))}
	writes := newWriteStream(r.streamSeed(0))
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		client := i % numClients
		s := c.stacks[client]
		opID := uint64(i + 1)
		write := r.writes() && client == 0
		q := -1
		kind := "write"
		if !write {
			q = reads[client].next()
			kind = r.pool.className(q)
		}
		var id uint64
		end := func() {}
		if t != nil {
			t.curOp.Store(opID)
			id, end = s.begin(spanOp, kind, 0)
			t.curSpan.Store(id)
		}
		p.attempted++
		if write {
			oid, val := writes.next()
			if err := s.insert(triple.T(oid, writeAttr, val), id); err != nil {
				p.fail("in-process: %v", err)
			} else {
				p.writes++
			}
		} else {
			rows, err := s.query(r.pool.texts[q], id)
			switch {
			case err != nil:
				p.fail("in-process: %s: %v", r.pool.texts[q], err)
			case !sameRows(rows, r.want[q]):
				p.fail("in-process: wrong rows on %s: got %d want %d", r.pool.texts[q], len(rows), len(r.want[q]))
			default:
				p.reads++
				p.rows += len(rows)
			}
		}
		end()
		if t != nil {
			t.curOp.Store(0)
			t.curSpan.Store(0)
		}
	}
	p.seconds = time.Since(start).Seconds()
	return p, nil
}

// --- self-time accounting ----------------------------------------------

// layerTimes is the traced pass folded per layer.
type layerTimes struct {
	ops        int
	wallNs     int64
	selfNs     map[string]int64 // span name → self time over all ops
	spanCount  map[string]int
	handlerNs  map[string]int64 // message kind → handler self time
	handlerCnt map[string]int
	transitNs  int64 // remote frames only, decode excluded
	transitCnt int
	logNs      int64
	sends      int
	remoteOps  int
}

// fold charges every instant of every op's wall time to one span name
// by selfOrder, and computes the per-span self times the metrics need.
func fold(spans []span) layerTimes {
	lt := layerTimes{selfNs: map[string]int64{}, spanCount: map[string]int{},
		handlerNs: map[string]int64{}, handlerCnt: map[string]int{}}
	prio := map[string]int{}
	for i, n := range selfOrder {
		prio[n] = i
	}
	byOp := map[uint64][]span{}
	byID := map[uint64]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], *s)
		}
		byID[s.ID] = s
	}
	// Per-span self times: a handler's own time excludes the sends and
	// log appends nested in it; a transit's excludes the decode.
	nested := map[uint64]int64{}
	for _, s := range spans {
		switch s.Name {
		case spanSend, spanLog:
			if p := byID[s.Parent]; p != nil && p.Name == spanHandler {
				nested[p.ID] += s.End - s.Start
			}
		case spanDecode:
			nested[s.Parent] += s.End - s.Start // keyed by the send span; transit shares that parent
		}
	}
	remote := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == spanSend && s.Remote {
			remote[s.ID] = true
		}
	}
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		switch s.Name {
		case spanHandler:
			lt.handlerNs[s.Kind] += s.End - s.Start - nested[s.ID]
			lt.handlerCnt[s.Kind]++
		case spanTransit:
			if remote[s.Parent] {
				lt.transitNs += s.End - s.Start - nested[s.Parent]
				lt.transitCnt++
			}
		case spanLog:
			lt.logNs += s.End - s.Start
		case spanSend:
			lt.sends++
		}
	}

	type event struct {
		at    int64
		prio  int
		delta int
	}
	for _, ss := range byOp {
		var op *span
		for i := range ss {
			if ss[i].Name == spanOp {
				op = &ss[i]
			}
		}
		if op == nil {
			continue // an op cut off by the end of the pass
		}
		lt.ops++
		lt.wallNs += op.End - op.Start
		events := make([]event, 0, 2*len(ss))
		leftProcess := false
		for _, s := range ss {
			lt.spanCount[s.Name]++
			if s.Name == spanSend && s.Remote {
				leftProcess = true
			}
			lo, hi := max(s.Start, op.Start), min(s.End, op.End)
			if lo >= hi {
				continue
			}
			events = append(events, event{lo, prio[s.Name], +1}, event{hi, prio[s.Name], -1})
		}
		if leftProcess {
			lt.remoteOps++
		}
		sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
		active := make([]int, len(selfOrder))
		prev := op.Start
		for _, e := range events {
			if e.at > prev {
				for p, n := range active {
					if n > 0 {
						lt.selfNs[selfOrder[p]] += e.at - prev
						break
					}
				}
				prev = e.at
			}
			active[e.prio] += e.delta
		}
	}
	return lt
}

// table renders the per-layer self-time table of the traced pass.
func (lt layerTimes) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traced pass: %d ops, %.3f ms mean wall per op; self time by layer\n", lt.ops, float64(lt.wallNs)/1e6/float64(max(lt.ops, 1)))
	fmt.Fprintf(&b, "  %-16s %10s %8s %12s %8s\n", "span", "total_ms", "share", "us_per_op", "spans")
	var accounted int64
	for i := len(selfOrder) - 1; i >= 0; i-- {
		name := selfOrder[i]
		ns := lt.selfNs[name]
		if name != spanOp {
			accounted += ns
		}
		fmt.Fprintf(&b, "  %-16s %10.2f %7.1f%% %12.2f %8d\n", name, float64(ns)/1e6,
			100*float64(ns)/float64(max(lt.wallNs, 1)), float64(ns)/1e3/float64(max(lt.ops, 1)), lt.spanCount[name])
	}
	fmt.Fprintf(&b, "  layers below the harness account for %.1f%% of the ops' wall time\n", 100*float64(accounted)/float64(max(lt.wallNs, 1)))
	return b.String()
}

// accounted is the share of op wall time charged to a layer of the
// system rather than to the harness's own op span.
func (lt layerTimes) accounted() float64 {
	if lt.wallNs == 0 {
		return 0
	}
	return 1 - float64(lt.selfNs[spanOp])/float64(lt.wallNs)
}

// writeTrace dumps the spans, capped so the file stays readable.
func writeTrace(path string, spans []span) error {
	const maxSpans = 50000
	total := len(spans)
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeJSON(path, struct {
		TotalSpans int    `json:"total_spans"`
		Spans      []span `json:"spans"`
	}{total, spans})
}
