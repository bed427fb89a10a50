package netx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"unistore/internal/simnet"
)

// Codec encodes overlay message payloads for the wire. The concrete
// implementation lives with the payload types (pgrid's gob codec);
// injecting it here keeps netx free of protocol imports.
type Codec interface {
	Encode(payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Config parameterizes a Transport.
type Config struct {
	// Listen is the TCP listen address; ":0" picks a free port.
	Listen string
	// Seeds are addresses of already-running transports to bootstrap
	// the NodeID→address routing table from. Empty for the first node.
	Seeds []string
	// Seed feeds the transport's rand source (the overlay draws replica
	// choices and gossip fanout from it).
	Seed int64
	// MaxFrame bounds one wire message; 0 means DefaultMaxFrame.
	MaxFrame int
	// QueueCap bounds each per-address outbound queue and each node
	// inbox; 0 means 1024. Overflow drops frames (the overlay's retry
	// machinery owns reliability).
	QueueCap int
	// DialTimeout bounds one TCP dial; 0 means 2s.
	DialTimeout time.Duration
	// RedialBackoff is the initial pause after a failed dial, doubling
	// to 32x; 0 means 50ms.
	RedialBackoff time.Duration
	// Logf, when set, receives transport diagnostics (one line each).
	Logf func(format string, args ...any)
}

// Stats counts transport activity; all fields are monotone. Queue
// overflow drops split by frame class — losing a small control frame
// (acks, routing, digests) starves the protocol in a different way
// than losing a bulk data page, and the split tells which of the two
// a congested link is actually shedding.
type Stats struct {
	FramesOut, FramesIn              int64
	BytesOut, BytesIn                int64
	Dials, DialErrs                  int64
	DropsQueueCtrl, DropsQueueBulk   int64
	DropsDead, DropsInbox, BadFrames int64
}

// bulkFrameBytes classifies an outbound frame: at or above this many
// encoded bytes it counts as bulk (data pages, state transfer), below
// as control (acks, probes, digests, routing gossip).
const bulkFrameBytes = 1024

// node is one locally hosted overlay node: its handler plus the FIFO
// inbox worker that serializes message handling, mirroring simnet's
// concurrent mode (one handler at a time per node, nodes in parallel).
type node struct {
	id    simnet.NodeID
	h     simnet.Handler
	inbox chan simnet.Message
}

// peerConn is the pooled outbound connection to one remote address: a
// bounded frame queue drained by a writer goroutine that dials lazily
// and redials (with backoff) after any write failure. The pool entry
// persists across reconnects — callers always enqueue on the same
// peerConn and never observe connection state.
type peerConn struct {
	addr string
	q    chan []byte
	// qBytes tracks the queued payload in bytes (atomic): frames add on
	// enqueue and subtract when the writer dequeues, so Load can weigh a
	// backlog of big pages heavier than the same count of tiny acks.
	qBytes int64
}

// Transport carries overlay messages over TCP. It implements
// pgrid.Transport; Concurrent() is always true, so waiters block on
// completion signals rather than pumping an event loop.
type Transport struct {
	cfg   Config
	codec Codec
	ln    net.Listener
	addr  string // resolved listen address
	start time.Time

	mu       sync.Mutex
	nodes    map[simnet.NodeID]*node
	routes   map[simnet.NodeID]string // remote NodeID → address
	conns    map[string]*peerConn
	dead     map[string]bool // addresses with a live dial failure
	reserved []simnet.NodeID // pre-assigned IDs for AddNode, in order
	nextID   simnet.NodeID   // fallback allocator when reserved is empty
	timers   map[int64]*time.Timer
	timerSeq int64
	started  bool
	closed   bool

	rngMu sync.Mutex
	rng   *rand.Rand

	stats   Stats
	closeCh chan struct{}
	wg      sync.WaitGroup // accept loop + readers + writers + workers
}

// New opens the listener and returns a transport ready for AddNode.
// Start launches the accept loop and bootstrap; Close shuts down.
func New(cfg Config, codec Codec) (*Transport, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 50 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netx: listen %s: %w", cfg.Listen, err)
	}
	return &Transport{
		cfg:     cfg,
		codec:   codec,
		ln:      ln,
		addr:    ln.Addr().String(),
		start:   time.Now(),
		nodes:   make(map[simnet.NodeID]*node),
		routes:  make(map[simnet.NodeID]string),
		conns:   make(map[string]*peerConn),
		dead:    make(map[string]bool),
		timers:  make(map[int64]*time.Timer),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		closeCh: make(chan struct{}),
	}, nil
}

// Addr returns the transport's resolved listen address.
func (t *Transport) Addr() string { return t.addr }

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Reserve pre-assigns the NodeIDs the next AddNode calls will return,
// in order. Multi-process assembly computes every node's global ID
// deterministically (pgrid.PlanSpecs) and reserves the locally hosted
// ones before building peers (pgrid.BuildFromSpecs), so AddNode hands
// out addresses consistent across the whole cluster.
func (t *Transport) Reserve(ids ...simnet.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserved = append(t.reserved, ids...)
}

// AddNode registers a locally hosted handler and returns its NodeID
// (the next reserved ID, or a local counter when none are reserved).
func (t *Transport) AddNode(h simnet.Handler) simnet.NodeID {
	t.mu.Lock()
	var id simnet.NodeID
	if len(t.reserved) > 0 {
		id = t.reserved[0]
		t.reserved = t.reserved[1:]
	} else {
		id = t.nextID
		t.nextID++
	}
	n := &node{id: id, h: h, inbox: make(chan simnet.Message, t.cfg.QueueCap)}
	t.nodes[id] = n
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// The inbox is never closed (readers may race a close); the
		// worker exits on the shutdown signal after a final drain.
		for {
			select {
			case msg := <-n.inbox:
				n.h.HandleMessage(msg)
			case <-t.closeCh:
				for {
					select {
					case msg := <-n.inbox:
						n.h.HandleMessage(msg)
					default:
						return
					}
				}
			}
		}
	}()
	return id
}

// Start launches the accept loop and announces this transport's nodes
// to the seed addresses. Call after all local nodes are registered.
func (t *Transport) Start() {
	t.mu.Lock()
	if t.started || t.closed {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.mu.Unlock()

	t.wg.Add(1)
	go t.acceptLoop()
	for _, seed := range t.cfg.Seeds {
		t.sendTable(seed)
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *Transport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	// Close unblocks pending reads by closing the conn via closeCh.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-t.closeCh:
			c.Close()
		case <-stop:
		}
	}()
	for {
		f, err := ReadFrame(c, t.cfg.MaxFrame)
		if err != nil {
			// EOF is a clean close; anything else poisons the stream —
			// framing cannot resync, so drop the connection. The peer's
			// writer will redial.
			if !errors.Is(err, io.EOF) {
				atomic.AddInt64(&t.stats.BadFrames, 1)
				t.logf("netx: %s: dropping conn: %v", t.addr, err)
			}
			return
		}
		atomic.AddInt64(&t.stats.FramesIn, 1)
		atomic.AddInt64(&t.stats.BytesIn, int64(4+frameFixed+len(f.Kind)+len(f.Body)))
		if f.To == controlNode {
			t.handleControl(f)
			continue
		}
		payload, err := t.codec.Decode(f.Body)
		if err != nil {
			atomic.AddInt64(&t.stats.BadFrames, 1)
			t.logf("netx: %s: bad payload (%s): %v", t.addr, f.Kind, err)
			continue
		}
		t.deliverLocal(simnet.Message{
			From: f.From, To: f.To, Kind: f.Kind, Payload: payload,
			Sent: t.Now(), Deliver: t.Now(), Size: len(f.Body),
		})
	}
}

func (t *Transport) deliverLocal(msg simnet.Message) {
	t.mu.Lock()
	n := t.nodes[msg.To]
	closed := t.closed
	t.mu.Unlock()
	if n == nil || closed {
		atomic.AddInt64(&t.stats.DropsDead, 1)
		return
	}
	select {
	case n.inbox <- msg:
	default:
		atomic.AddInt64(&t.stats.DropsInbox, 1)
	}
}

// Send schedules best-effort delivery. Local destinations are handed
// to the node's inbox through the same encode/decode cycle a remote
// message takes, so co-hosted and cross-process delivery have
// identical aliasing semantics (the receiver always owns a copy).
func (t *Transport) Send(from, to simnet.NodeID, kind string, payload any) {
	body, err := t.codec.Encode(payload)
	if err != nil {
		t.logf("netx: %s: encode %s: %v", t.addr, kind, err)
		atomic.AddInt64(&t.stats.BadFrames, 1)
		return
	}
	t.mu.Lock()
	_, local := t.nodes[to]
	addr := t.routes[to]
	t.mu.Unlock()
	if local {
		payload2, err := t.codec.Decode(body)
		if err != nil {
			t.logf("netx: %s: local decode %s: %v", t.addr, kind, err)
			return
		}
		t.deliverLocal(simnet.Message{
			From: from, To: to, Kind: kind, Payload: payload2,
			Sent: t.Now(), Deliver: t.Now(), Size: len(body),
		})
		return
	}
	if addr == "" {
		atomic.AddInt64(&t.stats.DropsDead, 1)
		t.logf("netx: %s: no route to node %d (%s)", t.addr, to, kind)
		return
	}
	t.sendFrame(addr, Frame{From: from, To: to, Kind: kind, Body: body})
}

func (t *Transport) sendFrame(addr string, f Frame) {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.logf("netx: %s: frame %s: %v", t.addr, f.Kind, err)
		return
	}
	pc := t.conn(addr)
	if pc == nil {
		atomic.AddInt64(&t.stats.DropsDead, 1)
		return
	}
	select {
	case pc.q <- buf:
		atomic.AddInt64(&pc.qBytes, int64(len(buf)))
		atomic.AddInt64(&t.stats.FramesOut, 1)
		atomic.AddInt64(&t.stats.BytesOut, int64(len(buf)))
	default:
		if len(buf) >= bulkFrameBytes {
			atomic.AddInt64(&t.stats.DropsQueueBulk, 1)
		} else {
			atomic.AddInt64(&t.stats.DropsQueueCtrl, 1)
		}
	}
}

// conn returns the pooled outbound connection for addr, creating its
// writer on first use. The entry is reused across reconnects.
func (t *Transport) conn(addr string) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	pc := t.conns[addr]
	if pc == nil {
		pc = &peerConn{addr: addr, q: make(chan []byte, t.cfg.QueueCap)}
		t.conns[addr] = pc
		t.wg.Add(1)
		go t.writeLoop(pc)
	}
	return pc
}

func (t *Transport) writeLoop(pc *peerConn) {
	defer t.wg.Done()
	var c net.Conn
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for {
		var buf []byte
		select {
		case <-t.closeCh:
			// Graceful shutdown: flush whatever is queued on the live
			// connection, then exit. No redial during drain.
			for {
				select {
				case buf = <-pc.q:
					atomic.AddInt64(&pc.qBytes, -int64(len(buf)))
					if c == nil {
						var err error
						c, err = net.DialTimeout("tcp", pc.addr, t.cfg.DialTimeout)
						if err != nil {
							return
						}
					}
					c.SetWriteDeadline(time.Now().Add(t.cfg.DialTimeout))
					if _, err := c.Write(buf); err != nil {
						return
					}
				default:
					return
				}
			}
		case buf = <-pc.q:
			atomic.AddInt64(&pc.qBytes, -int64(len(buf)))
		}
		// Write with bounded redial: a frame survives reconnects but is
		// dropped after repeated dial failures — reliability belongs to
		// the overlay's retries, not the transport.
		backoff := t.cfg.RedialBackoff
		for attempt := 0; ; attempt++ {
			if c == nil {
				var err error
				c, err = net.DialTimeout("tcp", pc.addr, t.cfg.DialTimeout)
				if err != nil {
					atomic.AddInt64(&t.stats.DialErrs, 1)
					t.setDead(pc.addr, true)
					if attempt >= 3 {
						atomic.AddInt64(&t.stats.DropsDead, 1)
						break
					}
					select {
					case <-t.closeCh:
						return
					case <-time.After(backoff):
					}
					if backoff < 32*t.cfg.RedialBackoff {
						backoff *= 2
					}
					continue
				}
				atomic.AddInt64(&t.stats.Dials, 1)
				t.setDead(pc.addr, false)
			}
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write(buf); err == nil {
				break
			}
			// Broken connection: drop it and retry the same frame on a
			// fresh dial (reconnect reuses this pool entry).
			c.Close()
			c = nil
			t.setDead(pc.addr, true)
		}
	}
}

func (t *Transport) setDead(addr string, dead bool) {
	t.mu.Lock()
	if dead {
		t.dead[addr] = true
	} else {
		delete(t.dead, addr)
	}
	t.mu.Unlock()
}

// --- pgrid.Transport surface --------------------------------------------

// Now is wall-clock time since the transport started.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// WallTimeout is the identity: protocol time is wall time here.
func (t *Transport) WallTimeout(d time.Duration) time.Duration { return d }

// Concurrent reports asynchronous delivery; always true.
func (t *Transport) Concurrent() bool { return true }

// After schedules fn once after d. Timers are tracked so Close can
// cancel the unexpired ones (hedge and deadline timers are minutes
// long; a daemon must not hold them past shutdown).
func (t *Transport) After(d time.Duration, fn func()) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.timerSeq++
	seq := t.timerSeq
	timer := time.AfterFunc(d, func() {
		t.mu.Lock()
		delete(t.timers, seq)
		t.mu.Unlock()
		fn()
	})
	t.timers[seq] = timer
	t.mu.Unlock()
}

// Alive reports advisory liveness: local nodes are alive; remote nodes
// are alive unless their address has a standing dial failure. Unknown
// nodes are reported alive (no evidence either way).
func (t *Transport) Alive(id simnet.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.nodes[id]; ok {
		return !t.closed
	}
	addr, ok := t.routes[id]
	if !ok {
		return true
	}
	return !t.dead[addr]
}

// Load is the advisory backlog: a local node's inbox depth, or the
// outbound queue depth toward a remote node's address weighted by the
// queued payload (one extra unit per KiB parked), so ten queued bulk
// pages read as more pressure than ten queued acks and replica
// selection steers around payload congestion, not just frame counts.
func (t *Transport) Load(id simnet.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[id]; ok {
		return len(n.inbox)
	}
	if addr, ok := t.routes[id]; ok {
		if pc, ok := t.conns[addr]; ok {
			return len(pc.q) + int(atomic.LoadInt64(&pc.qBytes)/1024)
		}
	}
	return 0
}

// Seeded randomness, locked for concurrent use.

func (t *Transport) Intn(k int) int {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Intn(k)
}

func (t *Transport) Int63() int64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Int63()
}

func (t *Transport) Float64() float64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Float64()
}

func (t *Transport) Perm(k int) []int {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Perm(k)
}

// Stats returns a snapshot of the activity counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesOut:      atomic.LoadInt64(&t.stats.FramesOut),
		FramesIn:       atomic.LoadInt64(&t.stats.FramesIn),
		BytesOut:       atomic.LoadInt64(&t.stats.BytesOut),
		BytesIn:        atomic.LoadInt64(&t.stats.BytesIn),
		Dials:          atomic.LoadInt64(&t.stats.Dials),
		DialErrs:       atomic.LoadInt64(&t.stats.DialErrs),
		DropsQueueCtrl: atomic.LoadInt64(&t.stats.DropsQueueCtrl),
		DropsQueueBulk: atomic.LoadInt64(&t.stats.DropsQueueBulk),
		DropsDead:      atomic.LoadInt64(&t.stats.DropsDead),
		DropsInbox:     atomic.LoadInt64(&t.stats.DropsInbox),
		BadFrames:      atomic.LoadInt64(&t.stats.BadFrames),
	}
}

// Routes returns a copy of the NodeID→address table (plus local nodes
// mapped to this transport's own address).
func (t *Transport) Routes() map[simnet.NodeID]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[simnet.NodeID]string, len(t.routes)+len(t.nodes))
	for id, addr := range t.routes {
		out[id] = addr
	}
	for id := range t.nodes {
		out[id] = t.addr
	}
	return out
}

// WaitRoutes blocks until the routing table covers at least n nodes
// (local included) or the timeout elapses; it reports whether coverage
// was reached. Daemons call it after Start before serving traffic.
func (t *Transport) WaitRoutes(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if len(t.Routes()) >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Flush waits until every outbound queue and node inbox is empty and
// stays empty for a settle interval, or the timeout elapses; it
// reports whether the transport quiesced. In-flight frames on the TCP
// stream are not observable — callers pair Flush on the sender with
// Flush on the receiver (the integration barrier does both).
func (t *Transport) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	settled := 0
	for {
		if t.idle() {
			settled++
			if settled >= 3 {
				return true
			}
		} else {
			settled = 0
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *Transport) idle() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, pc := range t.conns {
		if len(pc.q) > 0 {
			return false
		}
	}
	for _, n := range t.nodes {
		if len(n.inbox) > 0 {
			return false
		}
	}
	return true
}

// Close shuts the transport down: stops accepting, drains outbound
// queues onto live connections, cancels unexpired timers, and waits
// for every goroutine (accept loop, readers, writers, inbox workers)
// to exit. Safe to call once; messages sent after Close are dropped.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, timer := range t.timers {
		timer.Stop()
	}
	t.timers = map[int64]*time.Timer{}
	t.mu.Unlock()

	close(t.closeCh) // writers drain, readers unblock, workers wind down
	t.ln.Close()     // accept loop exits
	t.wg.Wait()
	return nil
}

// --- bootstrap ----------------------------------------------------------

// tableMsg is the routing-gossip control payload: the sender's address
// and its full NodeID→address view. JSON keeps the control plane
// independent of the payload codec.
type tableMsg struct {
	Addr  string
	Nodes map[simnet.NodeID]string
}

const kindTable = "!table"

// sendTable pushes this transport's full routing view to addr.
func (t *Transport) sendTable(addr string) {
	body, err := json.Marshal(tableMsg{Addr: t.addr, Nodes: t.Routes()})
	if err != nil {
		return
	}
	t.sendFrame(addr, Frame{From: controlNode, To: controlNode, Kind: kindTable, Body: body})
}

// handleControl merges routing gossip. The transport pushes its view
// onward only when the exchange was asymmetric — it learned something,
// or it holds mappings the sender's view lacked. Once all views are
// equal both conditions are false everywhere and the flood stops, so
// convergence is also termination.
func (t *Transport) handleControl(f Frame) {
	if f.Kind != kindTable {
		atomic.AddInt64(&t.stats.BadFrames, 1)
		return
	}
	var msg tableMsg
	if err := json.Unmarshal(f.Body, &msg); err != nil {
		atomic.AddInt64(&t.stats.BadFrames, 1)
		return
	}
	t.mu.Lock()
	learned := false
	for id, addr := range msg.Nodes {
		if addr == t.addr {
			continue // our own nodes route locally
		}
		if _, ok := t.nodes[id]; ok {
			continue
		}
		if t.routes[id] != addr {
			t.routes[id] = addr
			learned = true
		}
	}
	haveMore := false
	for id := range t.nodes {
		if msg.Nodes[id] == "" {
			haveMore = true
		}
	}
	for id := range t.routes {
		if msg.Nodes[id] == "" {
			haveMore = true
		}
	}
	// Collect distinct process addresses to gossip to.
	peers := make(map[string]bool)
	for _, addr := range t.routes {
		peers[addr] = true
	}
	t.mu.Unlock()
	if msg.Addr != "" && msg.Addr != t.addr {
		peers[msg.Addr] = true
	}
	if learned || haveMore {
		for addr := range peers {
			t.sendTable(addr)
		}
	}
}
