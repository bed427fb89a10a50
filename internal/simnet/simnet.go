// Package simnet provides a discrete-event network simulator that
// stands in for the paper's physical substrate (TCP/IP links between
// workstation peers, and the PlanetLab wide-area testbed used for the
// scalability demonstration).
//
// The simulator delivers messages between nodes with latencies drawn
// from a configurable LatencyModel, optionally drops messages, and
// supports node churn (nodes leaving and rejoining). All randomness
// flows from a single seeded source, so every experiment is exactly
// repeatable — the paper's "results are traceable, analyzable and (in
// limits) repeatable" claim, made unconditional.
//
// The network runs in one of two modes:
//
//   - Deterministic (the default): a single-threaded event loop driven
//     by Step/Run/Settle. Time is virtual — the loop advances a
//     simulated clock to each delivery instant, so a 400-node
//     wide-area experiment runs in milliseconds of wall time while
//     reporting seconds of simulated latency. Handlers run in the
//     calling goroutine; per-seed runs are bit-for-bit repeatable.
//
//   - Concurrent (StartConcurrent): a scheduler goroutine releases
//     events in simulated-time order, pacing them by wall clock
//     (simulated time divided by the dilation factor), and hands each
//     message to the destination node's FIFO inbox, where a dedicated
//     worker goroutine runs the handler. Different nodes process
//     messages in parallel; per-link FIFO order, loss, and latency
//     distributions are preserved. Drivers block with Quiesce instead
//     of pumping Step.
//
// All Network methods are safe for concurrent use in both modes.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// NodeID identifies a node in the simulated network.
type NodeID int

// Message is a unit of communication between nodes.
type Message struct {
	From, To NodeID
	Kind     string // protocol-level message type, used for accounting
	Payload  any
	Sent     time.Duration // simulated send instant
	Deliver  time.Duration // simulated delivery instant
	Size     int           // approximate wire size in bytes, for stats
}

// Handler is implemented by protocol layers (P-Grid peers, Chord nodes).
type Handler interface {
	// HandleMessage processes one delivered message. In deterministic
	// mode it runs in the event loop; in concurrent mode it runs on the
	// destination node's worker goroutine (one handler at a time per
	// node, but different nodes run in parallel). It may call
	// Network.Send but must not block on network progress.
	HandleMessage(msg Message)
}

// event is a scheduled occurrence: a message delivery or a timer.
type event struct {
	at    time.Duration
	seq   uint64 // tie-breaker for determinism
	msg   *Message
	timer func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() *event  { return h[0] }

// Stats accumulates network-level accounting for an experiment window.
type Stats struct {
	MessagesSent      int
	MessagesDelivered int
	MessagesDropped   int // lost to simulated loss or dead receivers
	BytesSent         int
	PerKind           map[string]int
	// MaxSizePerKind records the largest single message (wire bytes,
	// including the header estimate) sent per kind — how page-size
	// bounds on responses are verified.
	MaxSizePerKind map[string]int
	// MaxInflightBytes records, per node, the peak number of bytes that
	// were simultaneously sent-but-unhandled toward it — the signal the
	// flow-control benchmarks budget: receiver-driven windows exist to
	// keep this bounded at a slow or hot replica.
	MaxInflightBytes map[NodeID]int
	// MaxStall records, per service-throttled node, the longest a
	// message waited beyond its network latency (service queueing plus
	// the service time itself). Zero for nodes with no service delay.
	MaxStall map[NodeID]time.Duration
}

func newStats() Stats {
	return Stats{
		PerKind:          make(map[string]int),
		MaxSizePerKind:   make(map[string]int),
		MaxInflightBytes: make(map[NodeID]int),
		MaxStall:         make(map[NodeID]time.Duration),
	}
}

// Config parameterizes a Network.
type Config struct {
	Latency  LatencyModel
	LossRate float64 // probability a message is silently dropped
	Seed     int64
}

// DefaultTimeDilation is the simulated-to-wall-clock compression used
// by StartConcurrent when the caller passes 0: one simulated
// millisecond costs one wall-clock microsecond.
const DefaultTimeDilation = 1000

// inbox is an unbounded FIFO queue feeding one node's worker goroutine.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Message
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(m *Message) {
	ib.mu.Lock()
	ib.q = append(ib.q, m)
	ib.mu.Unlock()
	ib.cond.Signal()
}

// popAll blocks until messages are available and drains them all, or
// returns nil when the inbox closes. Draining in batches amortizes the
// per-message synchronization on hot nodes.
func (ib *inbox) popAll() []*Message {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.q) == 0 && !ib.closed {
		ib.cond.Wait()
	}
	if len(ib.q) == 0 {
		return nil
	}
	ms := ib.q
	ib.q = nil
	return ms
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// Network is the simulated network. All methods are safe for concurrent
// use; in deterministic mode the event loop itself (Step and the Run
// helpers) is intended to be driven from one goroutine at a time.
type Network struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[NodeID]Handler
	alive    map[NodeID]bool
	queue    eventHeap
	now      time.Duration
	seq      uint64
	stats    Stats
	nextID   NodeID
	inflight int
	quiet    *sync.Cond // broadcast when inflight drops to zero
	// load tracks the per-node backlog: messages sent to a node but not
	// yet fully handled (scheduled deliveries plus, in concurrent mode,
	// the node's inbox). Replica choosers read it through Load as the
	// "least loaded of two" signal. loadBytes is the same backlog in
	// wire bytes; its peak per node is Stats.MaxInflightBytes.
	load      map[NodeID]int
	loadBytes map[NodeID]int

	// svcDelay models a per-node service rate: each message addressed to
	// the node occupies its (single-threaded) service for svcDelay after
	// arriving, and messages queue behind each other — svcFree is the
	// instant the node's service next becomes idle. A deterministic
	// slow-replica throttle that composes with any LatencyModel.
	svcDelay map[NodeID]time.Duration
	svcFree  map[NodeID]time.Duration

	// Concurrent-mode state.
	concurrent bool
	dilation   float64
	inboxes    map[NodeID]*inbox
	linkLast   map[[2]NodeID]time.Duration // per-link FIFO clamp
	kick       chan struct{}               // wakes the scheduler on new events
	stopCh     chan struct{}
	wg         sync.WaitGroup
	// sleeping/sleepTarget describe the scheduler's pacing sleep, so
	// Send only kicks it for events that beat the current target.
	sleeping    bool
	sleepTarget time.Duration
}

// New creates a network with the given configuration. A nil Latency
// model defaults to ConstantLatency(1ms).
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(time.Millisecond)
	}
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nodes:     make(map[NodeID]Handler),
		alive:     make(map[NodeID]bool),
		load:      make(map[NodeID]int),
		loadBytes: make(map[NodeID]int),
		svcDelay:  make(map[NodeID]time.Duration),
		svcFree:   make(map[NodeID]time.Duration),
		stats:     newStats(),
	}
	n.quiet = sync.NewCond(&n.mu)
	return n
}

// Rand exposes the network's seeded random source so single-threaded
// protocol phases (trie construction, deterministic experiments) can
// share the deterministic stream. It must not be used concurrently;
// concurrent callers use Intn/Int63/Float64/Perm, which lock.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Intn draws from the network's seeded source under the network lock.
func (n *Network) Intn(k int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Intn(k)
}

// Int63 draws a non-negative int64 under the network lock.
func (n *Network) Int63() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Int63()
}

// Float64 draws from [0,1) under the network lock.
func (n *Network) Float64() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// Perm returns a random permutation of [0,k) under the network lock.
func (n *Network) Perm(k int) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Perm(k)
}

// Now returns the current simulated time.
func (n *Network) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// AddNode registers a handler and returns its fresh NodeID.
func (n *Network) AddNode(h Handler) NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.nextID
	n.nextID++
	n.nodes[id] = h
	n.alive[id] = true
	if n.concurrent {
		n.startWorkerLocked(id)
	}
	return id
}

// Handler returns the handler registered for id, or nil.
func (n *Network) Handler(id NodeID) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[id]
}

// NodeIDs returns all registered node ids in ascending order.
func (n *Network) NodeIDs() []NodeID {
	n.mu.Lock()
	ids := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Alive reports whether the node is currently up.
func (n *Network) Alive(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive[id]
}

// Kill marks a node as down: messages to it are dropped until Revive.
// Models churn / unreliable PlanetLab nodes.
func (n *Network) Kill(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive[id] = false
}

// Revive brings a node back up.
func (n *Network) Revive(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive[id] = true
}

// AliveCount returns the number of live nodes.
func (n *Network) AliveCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, up := range n.alive {
		if up {
			c++
		}
	}
	return c
}

// Send schedules delivery of a message. Size is estimated from the
// payload if the payload implements interface{ WireSize() int }.
func (n *Network) Send(from, to NodeID, kind string, payload any) {
	n.mu.Lock()
	n.stats.MessagesSent++
	n.stats.PerKind[kind]++
	size := 64 // baseline header estimate
	if s, ok := payload.(interface{ WireSize() int }); ok {
		size += s.WireSize()
	}
	n.stats.BytesSent += size
	if size > n.stats.MaxSizePerKind[kind] {
		n.stats.MaxSizePerKind[kind] = size
	}
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.stats.MessagesDropped++
		n.mu.Unlock()
		return
	}
	lat := n.cfg.Latency.Sample(n.rng, from, to)
	deliver := n.now + lat
	if n.concurrent {
		// Per-link FIFO: clamp the delivery instant so a later send on
		// the same (from,to) link never overtakes an earlier one —
		// TCP-like ordered channels, as exemplar DHT simulators model.
		link := [2]NodeID{from, to}
		if last, ok := n.linkLast[link]; ok && deliver < last {
			deliver = last
		}
		n.linkLast[link] = deliver
	}
	if d := n.svcDelay[to]; d > 0 {
		// Serialized service: the message starts service when it arrives
		// AND the node's service is idle, and occupies it for d. The
		// extra wait beyond network latency is the node's stall.
		arrival := deliver
		start := arrival
		if free := n.svcFree[to]; free > start {
			start = free
		}
		deliver = start + d
		n.svcFree[to] = deliver
		if stall := deliver - arrival; stall > n.stats.MaxStall[to] {
			n.stats.MaxStall[to] = stall
		}
	}
	m := &Message{From: from, To: to, Kind: kind, Payload: payload,
		Sent: n.now, Deliver: deliver, Size: size}
	n.seq++
	heap.Push(&n.queue, &event{at: m.Deliver, seq: n.seq, msg: m})
	n.inflight++
	n.load[to]++
	if n.loadBytes[to] += size; n.loadBytes[to] > n.stats.MaxInflightBytes[to] {
		n.stats.MaxInflightBytes[to] = n.loadBytes[to]
	}
	// Kick the scheduler only when it is parked waiting for something
	// later than (or other than) this event; if it is mid-dispatch it
	// re-peeks the queue on its own.
	needKick := n.concurrent && n.sleeping && deliver < n.sleepTarget
	n.mu.Unlock()
	if needKick {
		n.wake()
	}
}

// After schedules fn to run at now+d. Used for protocol timers
// (gossip rounds, retries). In concurrent mode fn runs on the
// scheduler goroutine; it must synchronize access to shared state.
func (n *Network) After(d time.Duration, fn func()) {
	n.mu.Lock()
	n.seq++
	heap.Push(&n.queue, &event{at: n.now + d, seq: n.seq, timer: fn})
	concurrent := n.concurrent
	n.mu.Unlock()
	if concurrent {
		n.wake()
	}
}

// Step processes the next event. It returns false when the queue is
// empty. In concurrent mode the scheduler owns the queue and Step is a
// no-op returning false.
func (n *Network) Step() bool {
	n.mu.Lock()
	if n.concurrent || len(n.queue) == 0 {
		n.mu.Unlock()
		return false
	}
	e := heap.Pop(&n.queue).(*event)
	if e.at > n.now {
		n.now = e.at
	}
	if e.timer != nil {
		n.mu.Unlock()
		e.timer()
		return true
	}
	n.dropInflightLocked()
	m := e.msg
	n.dropLoadLocked(m.To, m.Size)
	if !n.alive[m.To] || n.nodes[m.To] == nil {
		n.stats.MessagesDropped++
		n.mu.Unlock()
		return true
	}
	n.stats.MessagesDelivered++
	h := n.nodes[m.To]
	n.mu.Unlock()
	h.HandleMessage(*m)
	return true
}

// dropInflightLocked decrements the in-flight count, waking quiescence
// waiters at zero. Callers hold n.mu.
func (n *Network) dropInflightLocked() {
	n.inflight--
	if n.inflight == 0 {
		n.quiet.Broadcast()
	}
}

// dropLoadLocked releases one message of `bytes` wire bytes from a
// node's tracked backlog. Callers hold n.mu.
func (n *Network) dropLoadLocked(id NodeID, bytes int) {
	if n.load[id]--; n.load[id] <= 0 {
		delete(n.load, id)
	}
	if n.loadBytes[id] -= bytes; n.loadBytes[id] <= 0 {
		delete(n.loadBytes, id)
	}
}

// Load reports a node's current backlog: messages addressed to it that
// have not yet been fully handled (scheduled deliveries plus, in
// concurrent mode, its inbox). The replica-aware read path uses it as
// the load signal of its power-of-two-choices replica chooser.
func (n *Network) Load(id NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.load[id]
}

// SetServiceDelay throttles a node to a fixed per-message service time:
// every message addressed to it is handled d after both its network
// arrival and the completion of the previous message's service —
// a single-threaded server draining a queue at rate 1/d. Zero removes
// the throttle. Deterministic, and composes with any LatencyModel
// (including ClusteredLatency): the network part of the delay is still
// drawn from the model; the service part queues on top of it.
func (n *Network) SetServiceDelay(id NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.svcDelay, id)
		delete(n.svcFree, id)
		return
	}
	n.svcDelay[id] = d
}

// Run processes events until the queue drains and returns the number of
// events processed. Protocols with periodic timers should use RunUntil
// instead, or Run will never return.
func (n *Network) Run() int {
	c := 0
	for n.Step() {
		c++
	}
	return c
}

// RunUntil processes events with timestamps <= t (advancing the clock
// to t) and returns the number processed.
func (n *Network) RunUntil(t time.Duration) int {
	c := 0
	for {
		n.mu.Lock()
		ok := !n.concurrent && len(n.queue) > 0 && n.queue.Peek().at <= t
		n.mu.Unlock()
		if !ok {
			break
		}
		n.Step()
		c++
	}
	n.mu.Lock()
	if n.now < t {
		n.now = t
	}
	n.mu.Unlock()
	return c
}

// RunFor advances the simulation by d.
func (n *Network) RunFor(d time.Duration) int { return n.RunUntil(n.Now() + d) }

// Settle processes events until no message is in flight — quiescence
// with respect to protocol traffic. Unlike Run it terminates even when
// periodic timers (anti-entropy) keep the event queue non-empty
// forever; timers that fire while messages are in flight do run. In
// concurrent mode Settle blocks until the workers drain (see Quiesce).
func (n *Network) Settle() int {
	n.mu.Lock()
	if n.concurrent {
		n.mu.Unlock()
		n.Quiesce()
		return 0
	}
	n.mu.Unlock()
	c := 0
	for n.inflightNow() > 0 && n.Step() {
		c++
	}
	return c
}

// inflightNow returns the number of messages sent but not yet delivered
// (or, in concurrent mode, not yet fully handled).
func (n *Network) inflightNow() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// RunWhile keeps stepping while cond() holds and events remain. It is
// the request/response driver: issue a request, then RunWhile(pending).
func (n *Network) RunWhile(cond func() bool) int {
	c := 0
	for cond() && n.Step() {
		c++
	}
	return c
}

// Stats returns a snapshot of accumulated statistics.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.PerKind = make(map[string]int, len(n.stats.PerKind))
	for k, v := range n.stats.PerKind {
		s.PerKind[k] = v
	}
	s.MaxSizePerKind = make(map[string]int, len(n.stats.MaxSizePerKind))
	for k, v := range n.stats.MaxSizePerKind {
		s.MaxSizePerKind[k] = v
	}
	s.MaxInflightBytes = make(map[NodeID]int, len(n.stats.MaxInflightBytes))
	for k, v := range n.stats.MaxInflightBytes {
		s.MaxInflightBytes[k] = v
	}
	s.MaxStall = make(map[NodeID]time.Duration, len(n.stats.MaxStall))
	for k, v := range n.stats.MaxStall {
		s.MaxStall[k] = v
	}
	return s
}

// ResetStats zeroes the counters (the clock keeps running). Use between
// experiment phases so setup traffic is not billed to the measured
// query. Peak in-flight bytes restart at the CURRENT backlog — bytes
// already in the air keep counting against the new window.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = newStats()
	for id, b := range n.loadBytes {
		n.stats.MaxInflightBytes[id] = b
	}
}

// Pending returns the number of queued events (messages + timers).
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// String summarizes the network state.
func (n *Network) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("simnet{nodes=%d alive=%d now=%v sent=%d delivered=%d dropped=%d}",
		len(n.nodes), n.aliveCountLocked(), n.now, n.stats.MessagesSent,
		n.stats.MessagesDelivered, n.stats.MessagesDropped)
}

// aliveCountLocked counts live nodes with n.mu held.
func (n *Network) aliveCountLocked() int {
	c := 0
	for _, up := range n.alive {
		if up {
			c++
		}
	}
	return c
}

// --- Concurrent mode ---------------------------------------------------------

// Concurrent reports whether the network runs in concurrent mode.
func (n *Network) Concurrent() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.concurrent
}

// StartConcurrent switches the network from the deterministic step
// loop to goroutine-driven delivery: a scheduler goroutine releases
// events in simulated-time order (paced by wall clock at the given
// dilation: wall = simulated / dilation; 0 means DefaultTimeDilation),
// and each node's messages are handled on its own worker goroutine in
// per-link FIFO order.
//
// The usual pattern builds the overlay deterministically first (exact
// repeatability of the topology), then calls StartConcurrent to serve
// queries in parallel. Stop shuts the goroutines down.
func (n *Network) StartConcurrent(dilation float64) {
	n.mu.Lock()
	if n.concurrent {
		n.mu.Unlock()
		return
	}
	if dilation <= 0 {
		dilation = DefaultTimeDilation
	}
	n.concurrent = true
	n.dilation = dilation
	n.inboxes = make(map[NodeID]*inbox, len(n.nodes))
	n.linkLast = make(map[[2]NodeID]time.Duration)
	n.kick = make(chan struct{}, 1)
	n.stopCh = make(chan struct{})
	for id := range n.nodes {
		n.startWorkerLocked(id)
	}
	n.wg.Add(1)
	go n.schedule()
	n.mu.Unlock()
	n.wake()
}

// startWorkerLocked creates the inbox and worker goroutine for a node.
// Callers hold n.mu.
func (n *Network) startWorkerLocked(id NodeID) {
	ib := newInbox()
	n.inboxes[id] = ib
	n.wg.Add(1)
	go n.worker(n.nodes[id], ib)
}

// Stop shuts down the concurrent fabric: the scheduler and all workers
// exit after finishing the message each is currently handling. Events
// still queued are discarded. Stop is a no-op in deterministic mode.
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.concurrent {
		n.mu.Unlock()
		return
	}
	n.concurrent = false
	close(n.stopCh)
	inboxes := n.inboxes
	n.inboxes = nil
	n.mu.Unlock()
	for _, ib := range inboxes {
		ib.close()
	}
	// Workers finish (and account for) the batches they already hold
	// before the in-flight count and event queue are reset — resetting
	// first would race their decrements and leave inflight negative,
	// silently breaking Settle/Quiesce on any later use.
	n.wg.Wait()
	n.mu.Lock()
	n.queue = nil
	n.inflight = 0
	n.load = make(map[NodeID]int)
	n.quiet.Broadcast()
	n.mu.Unlock()
}

// Quiesce blocks until no message is in flight: every sent message has
// been delivered and its handler has returned (or it was dropped).
// The concurrent-mode analogue of Settle. Pending timers do not count,
// mirroring Settle's treatment of periodic maintenance.
func (n *Network) Quiesce() {
	n.mu.Lock()
	for n.inflight > 0 && n.concurrent {
		n.quiet.Wait()
	}
	n.mu.Unlock()
}

// WallTimeout converts a simulated-time budget into the wall-clock
// bound a concurrent-mode waiter should use: the budget divided by the
// dilation factor, floored at one second of slack for scheduling
// overhead. In deterministic mode it returns d unchanged.
func (n *Network) WallTimeout(d time.Duration) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.concurrent {
		return d
	}
	w := time.Duration(float64(d) / n.dilation)
	if w < time.Second {
		w = time.Second
	}
	return w
}

// wake nudges the scheduler after queue changes.
func (n *Network) wake() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// dispatch is one scheduler decision: a due message bound for an
// inbox, or a due timer to run.
type dispatch struct {
	ib    *inbox
	msg   *Message
	timer func()
}

// farFuture parks the scheduler's sleep target beyond any event time
// while it waits on an empty queue, so every new event kicks it.
const farFuture = time.Duration(1<<63 - 1)

// schedule is the concurrent-mode event dispatcher: it pops events in
// simulated-time order, sleeps the dilated wall-clock gap between
// event times, runs timers, and routes messages to their destination
// inboxes. Due events are drained in batches under one lock
// acquisition so a large fan-out pays the synchronization cost once.
func (n *Network) schedule() {
	defer n.wg.Done()
	var batch []dispatch
	for {
		n.mu.Lock()
		n.sleeping = false
		if !n.concurrent {
			n.mu.Unlock()
			return
		}
		if len(n.queue) == 0 {
			n.sleeping = true
			n.sleepTarget = farFuture
			n.mu.Unlock()
			select {
			case <-n.kick:
				continue
			case <-n.stopCh:
				return
			}
		}
		next := n.queue.Peek()
		if gap := next.at - n.now; gap > 0 {
			wall := time.Duration(float64(gap) / n.dilation)
			if wall > 0 {
				target := next.at
				n.sleeping = true
				n.sleepTarget = target
				n.mu.Unlock()
				t := time.NewTimer(wall)
				select {
				case <-t.C:
					// The pacing sleep elapsed: advance the simulated
					// clock to the instant slept toward, so the event
					// is due on the next pass.
					n.mu.Lock()
					n.sleeping = false
					if n.now < target {
						n.now = target
					}
					n.mu.Unlock()
				case <-n.kick: // an earlier event arrived
					t.Stop()
				case <-n.stopCh:
					t.Stop()
					return
				}
				continue
			}
			// Gap below wall-clock resolution: advance immediately.
			n.now = next.at
		}
		// Drain everything due at (or before) the current instant.
		batch = batch[:0]
		for len(n.queue) > 0 && n.queue.Peek().at <= n.now {
			e := heap.Pop(&n.queue).(*event)
			if e.timer != nil {
				batch = append(batch, dispatch{timer: e.timer})
				continue
			}
			m := e.msg
			ib := n.inboxes[m.To]
			if !n.alive[m.To] || ib == nil {
				n.stats.MessagesDropped++
				n.dropInflightLocked()
				n.dropLoadLocked(m.To, m.Size)
				continue
			}
			n.stats.MessagesDelivered++
			batch = append(batch, dispatch{ib: ib, msg: m})
		}
		n.mu.Unlock()
		for _, d := range batch {
			if d.timer != nil {
				d.timer()
			} else {
				d.ib.push(d.msg)
			}
		}
	}
}

// worker drains one node's inbox in batches, running the handler for
// each message in FIFO order.
func (n *Network) worker(h Handler, ib *inbox) {
	defer n.wg.Done()
	for {
		ms := ib.popAll()
		if ms == nil {
			return
		}
		if h != nil {
			for _, m := range ms {
				h.HandleMessage(*m)
			}
		}
		n.mu.Lock()
		n.inflight -= len(ms)
		for _, m := range ms {
			n.dropLoadLocked(m.To, m.Size)
		}
		if n.inflight == 0 {
			n.quiet.Broadcast()
		}
		n.mu.Unlock()
	}
}
