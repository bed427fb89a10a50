package pgrid

import (
	"slices"
	"sync"

	"unistore/internal/simnet"
)

// This file implements receiver-driven sliding-window flow control for
// the overlay's bulk streams. Receivers advertise a credit window in
// BOTH bytes and messages — piggybacked on every insert ack and query
// response (stampResp), and carried explicitly on range showers, page
// pulls and digest pulls — and senders keep per-peer credit
// bookkeeping here: bulk sends charge the window, acks release it, and
// a send that would overrun the receiver is deferred FIFO until credit
// returns. The page and anti-entropy paths are receiver-paced at the
// server instead (the origin's window shrinks the effective page), so
// the sender-side table governs the one bulk path with no pull loop:
// the acked-insert fan-out.
//
// Two liveness rules keep a window from ever wedging a sender:
//
//   - at least one message per peer may always be in flight, no matter
//     how tiny the advertised window (a window smaller than the entry
//     degrades to stop-and-wait, never to deadlock);
//   - every failover edge that abandons a receiver — insert retry,
//     hedge, claim transfer, operation completion or expiry — releases
//     the charges held against it and flushes the deferred queue, so a
//     dead receiver cannot strand credit (the zero-credit-deadlock
//     regression test pins this).
//
// Window pressure observed here (credit-exhaustion stalls, the EWMA of
// advertised windows, deferred-queue depth) feeds pickReplicaLocked's
// power-of-two-choices comparison and, via PeerStats, the cost model's
// Pressure input — backpressure and replica selection reinforce each
// other instead of fighting.

// Default receive windows advertised by a peer with an idle inbox.
// Bytes dominate in practice; the message window backstops payloads
// the byte estimate misses.
const (
	DefaultFlowWindowBytes = 64 << 10
	DefaultFlowWindowMsgs  = 32
)

// minAdvertiseBytes floors the advertised byte window: always enough
// for one entry, so a loaded receiver throttles senders down to
// stop-and-wait instead of silence.
const minAdvertiseBytes = 512

// flowEwmaAlpha smooths the advertised-window and incoming-size EWMAs.
const flowEwmaAlpha = 0.3

// flowKey identifies one charged bulk send: the operation and the
// sequence number its ack will echo.
type flowKey struct {
	qid uint64
	seq uint8
}

// flowCharge remembers whom a send was charged against and for how
// many bytes. The ack releasing it may arrive from a DIFFERENT node
// (routing moved the envelope to a sibling replica); release always
// goes through the charge, so credit returns to the peer that lent it.
// sent distinguishes in-flight charges from ones still sitting in the
// deferred queue (only sent charges count against the window).
type flowCharge struct {
	node  simnet.NodeID
	bytes int
	sent  bool
}

// flowDeferred is one send parked until the receiver's window admits
// it. The send closure re-routes at flush time, so credit returning
// after a topology change still lands the payload on a live owner.
type flowDeferred struct {
	key   flowKey
	bytes int
	send  func()
}

// flowPeer is the sender-side credit state toward one receiver.
type flowPeer struct {
	winBytes      int // last advertised byte window (0 = none known)
	winMsgs       int // last advertised message window (0 = none known)
	ewmaWin       float64
	inflightBytes int // sent and unacknowledged
	inflightMsgs  int
	deferred      []flowDeferred
}

// flowTable is a peer's flow-control state: sender-side credit per
// receiver plus the incoming-size EWMA behind its own advertised
// window. It has its own mutex, locked strictly after p.mu when both
// are held (innermost lock); its methods never call back into the
// peer, and every method that may trigger sends RETURNS them as
// closures for the caller to run after unlocking.
type flowTable struct {
	mu      sync.Mutex
	peers   map[simnet.NodeID]*flowPeer
	charges map[flowKey]*flowCharge
	inSize  float64 // EWMA of incoming message sizes (advertiseWindow)
}

func newFlowTable() *flowTable {
	return &flowTable{
		peers:   make(map[simnet.NodeID]*flowPeer),
		charges: make(map[flowKey]*flowCharge),
	}
}

func (t *flowTable) peer(id simnet.NodeID) *flowPeer {
	fp := t.peers[id]
	if fp == nil {
		fp = &flowPeer{}
		t.peers[id] = fp
	}
	return fp
}

// fits reports whether one more send of `bytes` stays inside the
// peer's advertised window. An unknown window (0) never gates, and a
// peer with nothing in flight always fits — the ≥1-in-flight liveness
// rule.
func (fp *flowPeer) fits(bytes int) bool {
	if fp.inflightMsgs == 0 {
		return true
	}
	if fp.winMsgs > 0 && fp.inflightMsgs+1 > fp.winMsgs {
		return false
	}
	if fp.winBytes > 0 && fp.inflightBytes+bytes > fp.winBytes {
		return false
	}
	return true
}

// submit charges one bulk send of `bytes` toward `to` under `key` and
// either performs it now (returns true) or defers it FIFO until credit
// returns (returns false — the caller counts the stall). FIFO order is
// strict: a fitting send still queues behind earlier deferred ones, so
// entries reach a slow receiver in issue order.
func (t *flowTable) submit(to simnet.NodeID, key flowKey, bytes int, send func()) bool {
	t.mu.Lock()
	fp := t.peer(to)
	if len(fp.deferred) == 0 && fp.fits(bytes) {
		fp.inflightMsgs++
		fp.inflightBytes += bytes
		t.charges[key] = &flowCharge{node: to, bytes: bytes, sent: true}
		t.mu.Unlock()
		send()
		return true
	}
	t.charges[key] = &flowCharge{node: to, bytes: bytes}
	fp.deferred = append(fp.deferred, flowDeferred{key: key, bytes: bytes, send: send})
	t.mu.Unlock()
	return false
}

// fitsConservative is fits with slow-start semantics for best-effort
// streams: an UNKNOWN window gates at the defaults instead of passing
// freely, so a gossip burst toward a peer that has never advertised
// (a fresh replica, a rejoiner mid-catch-up) stays bounded until real
// credit news arrives. Reliable sends keep plain fits — first-contact
// inserts must not wait on credit nobody has promised.
func (fp *flowPeer) fitsConservative(bytes int) bool {
	if fp.winMsgs > 0 || fp.winBytes > 0 {
		return fp.fits(bytes)
	}
	if fp.inflightMsgs == 0 {
		return true
	}
	return fp.inflightMsgs+1 <= DefaultFlowWindowMsgs &&
		fp.inflightBytes+bytes <= DefaultFlowWindowBytes
}

// trySubmit charges and performs one best-effort send if the window
// admits it right now, and otherwise declines WITHOUT queueing — the
// caller keeps the payload (eager gossip coalesces it into a pending
// buffer) and retries when credit frees. Declining preserves FIFO for
// the deferred queue: a parked reliable send is never overtaken.
func (t *flowTable) trySubmit(to simnet.NodeID, key flowKey, bytes int, send func()) bool {
	t.mu.Lock()
	fp := t.peer(to)
	if len(fp.deferred) > 0 || !fp.fitsConservative(bytes) {
		t.mu.Unlock()
		return false
	}
	fp.inflightMsgs++
	fp.inflightBytes += bytes
	t.charges[key] = &flowCharge{node: to, bytes: bytes, sent: true}
	t.mu.Unlock()
	send()
	return true
}

// windowBytesOf reports the last byte window a peer advertised (0 when
// none known) — the batch bound of a gossip flush.
func (t *flowTable) windowBytesOf(id simnet.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fp := t.peers[id]; fp != nil {
		return fp.winBytes
	}
	return 0
}

// release settles the charge under key (its ack arrived), folds the
// acking node's piggybacked window in, and returns the deferred sends
// the freed credit admits. The ack's sender may differ from the
// charged node: the window news applies to `from`, the credit returns
// to the charge's node, and both queues get a flush chance.
func (t *flowTable) release(key flowKey, from simnet.NodeID, winBytes, winMsgs int) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if winBytes > 0 || winMsgs > 0 {
		t.windowLocked(from, winBytes, winMsgs)
	}
	var out []func()
	if c, ok := t.charges[key]; ok {
		delete(t.charges, key)
		t.unchargeLocked(c)
		out = t.flushLocked(c.node)
		if c.node == from {
			return out
		}
	}
	return append(out, t.flushLocked(from)...)
}

// unchargeLocked returns a SENT charge's credit; a still-deferred
// charge never consumed any.
func (t *flowTable) unchargeLocked(c *flowCharge) {
	if !c.sent {
		return
	}
	fp := t.peers[c.node]
	if fp == nil {
		return
	}
	if fp.inflightMsgs--; fp.inflightMsgs < 0 {
		fp.inflightMsgs = 0
	}
	if fp.inflightBytes -= c.bytes; fp.inflightBytes < 0 {
		fp.inflightBytes = 0
	}
}

// window records a receiver's freshly advertised window and flushes
// any deferred sends the new credit admits.
func (t *flowTable) window(from simnet.NodeID, winBytes, winMsgs int) []func() {
	if winBytes == 0 && winMsgs == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windowLocked(from, winBytes, winMsgs)
	return t.flushLocked(from)
}

func (t *flowTable) windowLocked(from simnet.NodeID, winBytes, winMsgs int) {
	fp := t.peer(from)
	fp.winBytes = winBytes
	fp.winMsgs = winMsgs
	if fp.ewmaWin == 0 {
		fp.ewmaWin = float64(winBytes)
	} else {
		fp.ewmaWin += flowEwmaAlpha * (float64(winBytes) - fp.ewmaWin)
	}
}

// flushLocked pops deferred sends for one peer while the window admits
// them, charging each as it goes out. Entries whose charge was
// released while they waited (operation completed or expired) are
// dropped — nobody needs them anymore.
func (t *flowTable) flushLocked(id simnet.NodeID) []func() {
	fp := t.peers[id]
	if fp == nil {
		return nil
	}
	var out []func()
	for len(fp.deferred) > 0 {
		d := fp.deferred[0]
		c, ok := t.charges[d.key]
		if !ok || c.sent {
			// Released while deferred, or re-sent by a failover path.
			fp.deferred = fp.deferred[1:]
			continue
		}
		if !fp.fits(d.bytes) {
			break
		}
		fp.deferred = fp.deferred[1:]
		c.sent = true
		fp.inflightMsgs++
		fp.inflightBytes += d.bytes
		out = append(out, d.send)
	}
	if len(fp.deferred) == 0 {
		fp.deferred = nil
	}
	return out
}

// releaseNode abandons every charge held against one receiver and
// flushes its whole deferred queue unconditionally — the failover
// release: the receiver is dead, hedged around, or its claim moved, so
// holding credit against it can only strand the sender. The deferred
// sends still run (their closures re-route, finding a live owner);
// duplicate deliveries the flush may cause are harmless (store version
// tie-break, ack dedup).
func (t *flowTable) releaseNode(id simnet.NodeID) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	fp := t.peers[id]
	var out []func()
	if fp != nil {
		for _, d := range fp.deferred {
			if c, ok := t.charges[d.key]; ok && !c.sent {
				out = append(out, d.send)
			}
		}
		fp.deferred = nil
		fp.inflightMsgs, fp.inflightBytes = 0, 0
	}
	for k, c := range t.charges {
		if c.node == id {
			delete(t.charges, k)
		}
	}
	return out
}

// releaseKey abandons one charge without an ack (its entry is being
// re-routed by the retry timer): the credit returns, and if the charge
// was still deferred the retry's own send supersedes the parked one.
func (t *flowTable) releaseKey(key flowKey) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.charges[key]
	if !ok {
		return nil
	}
	delete(t.charges, key)
	t.unchargeLocked(c)
	return t.flushLocked(c.node)
}

// releaseOp settles every charge of one operation (completion, expiry
// or cancel), flushing whatever the returned credit admits — receivers
// in address order, so a seeded run repeats exactly.
func (t *flowTable) releaseOp(qid uint64) []func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var touched []simnet.NodeID
	for k, c := range t.charges {
		if k.qid != qid {
			continue
		}
		delete(t.charges, k)
		t.unchargeLocked(c)
		touched = append(touched, c.node)
	}
	slices.Sort(touched)
	var out []func()
	for _, id := range slices.Compact(touched) {
		out = append(out, t.flushLocked(id)...)
	}
	return out
}

// penalty is the chooser-visible pressure toward one peer: deferred
// sends waiting on credit weigh heaviest, a fully consumed window adds
// one more — added to Transport.Load in pickReplicaLocked so power-of-
// two-choices steers new reads away from a receiver this sender is
// already stalled on.
func (t *flowTable) penalty(id simnet.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	fp := t.peers[id]
	if fp == nil {
		return 0
	}
	pen := 2 * len(fp.deferred)
	if fp.inflightMsgs > 0 && !fp.fits(minAdvertiseBytes) {
		pen++
	}
	return pen
}

// ewmaWindow returns the smoothed advertised byte window of one peer
// (0 when none has been observed) — the slow pressure signal.
func (t *flowTable) ewmaWindow(id simnet.NodeID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fp := t.peers[id]; fp != nil {
		return fp.ewmaWin
	}
	return 0
}

// observeIn folds one incoming message size into the EWMA behind the
// peer's own advertised byte window.
func (t *flowTable) observeIn(size int) {
	if size <= 0 {
		return
	}
	t.mu.Lock()
	if t.inSize == 0 {
		t.inSize = float64(size)
	} else {
		t.inSize += flowEwmaAlpha * (float64(size) - t.inSize)
	}
	t.mu.Unlock()
}

// avgInSize is the EWMA of incoming message sizes, defaulting to a
// plausible entry size before any message has been observed.
func (t *flowTable) avgInSize() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inSize == 0 {
		return 256
	}
	return t.inSize
}

// inflight reports the committed in-flight toward one peer (tests).
func (t *flowTable) inflight(id simnet.NodeID) (msgs, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fp := t.peers[id]; fp != nil {
		return fp.inflightMsgs, fp.inflightBytes
	}
	return 0, 0
}

// deferredLen reports the deferred-queue depth toward one peer (tests
// and diagnostics).
func (t *flowTable) deferredLen(id simnet.NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fp := t.peers[id]; fp != nil {
		return len(fp.deferred)
	}
	return 0
}
