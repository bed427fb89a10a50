package pgrid

import (
	"slices"
	"strings"
	"testing"
	"time"

	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// run executes the sends a flowTable method returned.
func runSends(sends []func()) {
	for _, s := range sends {
		s()
	}
}

// TestFlowTableSubmitWindowRelease: sends inside the advertised window
// go out immediately, the overrun defers FIFO, and each release admits
// the next parked send in issue order.
func TestFlowTableSubmitWindowRelease(t *testing.T) {
	ft := newFlowTable()
	runSends(ft.window(1, 100, 2))

	var sent []int
	mk := func(i int) func() { return func() { sent = append(sent, i) } }
	for i := 0; i < 4; i++ {
		ft.submit(1, flowKey{qid: uint64(i + 1)}, 40, mk(i))
	}
	if len(sent) != 2 {
		t.Fatalf("window of 2 msgs admitted %d sends, want 2", len(sent))
	}
	if n := ft.deferredLen(1); n != 2 {
		t.Fatalf("deferred %d, want 2", n)
	}
	runSends(ft.release(flowKey{qid: 1}, 1, 100, 2))
	runSends(ft.release(flowKey{qid: 2}, 1, 100, 2))
	if len(sent) != 4 || sent[2] != 2 || sent[3] != 3 {
		t.Fatalf("flush order %v, want [0 1 2 3]", sent)
	}
	if msgs, bytes := ft.inflight(1); msgs != 2 || bytes != 80 {
		t.Fatalf("inflight after flush = %d msgs / %dB, want 2/80", msgs, bytes)
	}
}

// TestFlowTableTinyWindowLiveness: a window smaller than one entry
// degrades to stop-and-wait, never to silence — the ≥1-in-flight rule.
func TestFlowTableTinyWindowLiveness(t *testing.T) {
	ft := newFlowTable()
	runSends(ft.window(7, 1, 1)) // 1 byte, 1 msg: nothing "fits"

	sent := 0
	for i := 0; i < 3; i++ {
		ft.submit(7, flowKey{qid: uint64(i + 1)}, 500, func() { sent++ })
	}
	if sent != 1 {
		t.Fatalf("tiny window let %d sends out at once, want exactly 1", sent)
	}
	runSends(ft.release(flowKey{qid: 1}, 7, 1, 1))
	if sent != 2 {
		t.Fatalf("release admitted %d total, want stop-and-wait progress to 2", sent)
	}
	runSends(ft.release(flowKey{qid: 2}, 7, 1, 1))
	runSends(ft.release(flowKey{qid: 3}, 7, 1, 1))
	if sent != 3 {
		t.Fatalf("stream wedged at %d/3 sends", sent)
	}
}

// TestFlowTableTrySubmitSlowStart: with no window ever advertised,
// best-effort sends gate at the default window instead of passing
// freely; once the peer advertises, the real window governs; and a
// parked reliable send is never overtaken by a best-effort one.
func TestFlowTableTrySubmitSlowStart(t *testing.T) {
	ft := newFlowTable()
	accepted := 0
	for i := 0; i < 2*DefaultFlowWindowMsgs; i++ {
		if ft.trySubmit(3, flowKey{qid: uint64(i + 1)}, 64, func() { accepted++ }) {
			continue
		}
	}
	if accepted != DefaultFlowWindowMsgs {
		t.Fatalf("slow start admitted %d sends, want the default window %d",
			accepted, DefaultFlowWindowMsgs)
	}

	// Real credit news replaces the conservative bound.
	ft2 := newFlowTable()
	runSends(ft2.window(4, 1<<20, 2))
	ok1 := ft2.trySubmit(4, flowKey{qid: 101}, 64, func() {})
	ok2 := ft2.trySubmit(4, flowKey{qid: 102}, 64, func() {})
	ok3 := ft2.trySubmit(4, flowKey{qid: 103}, 64, func() {})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("advertised 2-msg window admitted (%v,%v,%v), want (true,true,false)", ok1, ok2, ok3)
	}

	// FIFO: once a reliable send is parked, trySubmit declines even
	// with credit to spare.
	ft3 := newFlowTable()
	runSends(ft3.window(5, 64, 1))
	ft3.submit(5, flowKey{qid: 201}, 32, func() {}) // in flight
	ft3.submit(5, flowKey{qid: 202}, 32, func() {}) // parked
	if ft3.trySubmit(5, flowKey{qid: 203}, 1, func() {}) {
		t.Fatal("best-effort send overtook a parked reliable send")
	}
}

// TestFlowTableZeroCreditDeadlock is the regression pin for the
// failover liveness rule: when every byte of a receiver's window is
// charged and the receiver dies without acking, releaseNode must
// return all credit and flush the parked queue — otherwise the sender
// holds zero credit forever and the stream deadlocks.
func TestFlowTableZeroCreditDeadlock(t *testing.T) {
	ft := newFlowTable()
	runSends(ft.window(9, 100, 2))

	sent := 0
	for i := 0; i < 5; i++ {
		ft.submit(9, flowKey{qid: uint64(i + 1)}, 50, func() { sent++ })
	}
	if sent != 2 {
		t.Fatalf("setup: %d in flight, want 2", sent)
	}
	// The receiver dies; no ack will ever arrive.
	runSends(ft.releaseNode(9))
	if sent != 5 {
		t.Fatalf("releaseNode left the stream wedged at %d/5 sends", sent)
	}
	if msgs, bytes := ft.inflight(9); msgs != 0 || bytes != 0 {
		t.Fatalf("credit still held against a dead node: %d msgs / %dB", msgs, bytes)
	}
	if ft.deferredLen(9) != 0 {
		t.Fatal("deferred queue survived releaseNode")
	}

	// releaseOp variant: the operation is cancelled instead.
	ft2 := newFlowTable()
	runSends(ft2.window(9, 100, 1))
	sent2 := 0
	ft2.submit(9, flowKey{qid: 77, seq: 0}, 80, func() { sent2++ })
	ft2.submit(9, flowKey{qid: 77, seq: 1}, 80, func() { sent2++ })
	ft2.submit(9, flowKey{qid: 78}, 80, func() { sent2++ })
	runSends(ft2.releaseOp(77))
	if sent2 != 2 {
		t.Fatalf("releaseOp did not free credit for the next operation: %d sends", sent2)
	}
}

// TestFlowTablePenalty: deferred sends and an exhausted window raise
// the replica chooser's pressure signal; an idle peer costs nothing.
func TestFlowTablePenalty(t *testing.T) {
	ft := newFlowTable()
	if ft.penalty(2) != 0 {
		t.Fatal("idle peer has nonzero penalty")
	}
	runSends(ft.window(2, 600, 1))
	ft.submit(2, flowKey{qid: 1}, 600, func() {})
	if got := ft.penalty(2); got != 1 {
		t.Fatalf("exhausted window penalty = %d, want 1", got)
	}
	ft.submit(2, flowKey{qid: 2}, 600, func() {})
	if got := ft.penalty(2); got != 3 {
		t.Fatalf("deferred+exhausted penalty = %d, want 3", got)
	}
}

// TestGossipCoalescingKeepsStoreWinner: when two distinct entries of
// the same fact collide at equal versions in the pending buffer, the
// one kept must be the one the store's LWW tie-break would keep —
// otherwise two replicas can converge to different winners.
func TestGossipCoalescingKeepsStoreWinner(t *testing.T) {
	net := newNet(11)
	peers := BuildBalanced(net, 2, 1, DefaultConfig())
	p := peers[0]

	a := store.Entry{Kind: triple.ByOID, Triple: triple.T("p1", "pub", "Paper A"), Version: 1}
	b := store.Entry{Kind: triple.ByOID, Triple: triple.T("p1", "pub", "Paper B"), Version: 1}
	if !b.Supersedes(a) || a.Supersedes(b) {
		t.Fatal("fixture: B must supersede A under the value tie-break")
	}
	for _, batch := range [][]store.Entry{{b}, {a}} { // winner arrives FIRST
		p.gossipMu.Lock()
		p.mergeGossipLocked(99, batch)
		p.gossipMu.Unlock()
	}
	pend := p.gossipPend[99]
	if len(pend.order) != 1 {
		t.Fatalf("pending holds %d entries, want 1 coalesced", len(pend.order))
	}
	for _, e := range pend.latest {
		if !e.Triple.Equal(b.Triple) {
			t.Fatalf("coalescing kept %v, want the store winner %v", e.Triple, b.Triple)
		}
	}
	// Higher version still wins regardless of value order.
	c := store.Entry{Kind: triple.ByOID, Triple: triple.T("p1", "pub", "Paper A"), Version: 2}
	p.gossipMu.Lock()
	p.mergeGossipLocked(99, []store.Entry{c})
	p.gossipMu.Unlock()
	for _, e := range p.gossipPend[99].latest {
		if e.Version != 2 {
			t.Fatalf("version 2 did not supersede: kept v%d", e.Version)
		}
	}
}

// TestGossipPendingDrainsOnCredit: gossip declined by a tiny window
// parks in the pending buffer and must drain completely once acks
// return credit — by quiescence the replica holds every entry.
func TestGossipPendingDrainsOnCredit(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond), Seed: 12})
	cfg := DefaultConfig()
	cfg.FlowWindowBytes = 600 // a couple of entries per credit grant
	cfg.FlowWindowMsgs = 1
	peers := BuildBalanced(net, 4, 2, cfg)

	origin := peers[0]
	for i := 0; i < 40; i++ {
		tr := triple.T(personOID(i), "name", personOID(i))
		if res := origin.InsertTripleSync(tr, 1); !res.Complete {
			t.Fatalf("insert %d did not complete", i)
		}
	}
	net.Settle()
	for _, p := range peers {
		p.gossipMu.Lock()
		held := 0
		for _, pend := range p.gossipPend {
			held += len(pend.order)
		}
		p.gossipMu.Unlock()
		if held != 0 {
			t.Fatalf("peer %d still holds %d pending gossip entries at quiescence", p.ID(), held)
		}
	}
	// Replica siblings converged despite the 1-msg window.
	for _, p := range peers {
		for _, r := range p.Replicas() {
			var sib *Peer
			for _, q := range peers {
				if q.ID() == r.ID {
					sib = q
				}
			}
			if sib == nil {
				continue
			}
			if got, want := len(sib.Store().Facts()), len(p.Store().Facts()); got != want {
				t.Fatalf("replica pair %d/%d diverged: %d vs %d facts", p.ID(), sib.ID(), got, want)
			}
		}
	}
}

// gossipRecorder is a replica stand-in that records every gossip batch
// it receives and acks it with a fixed window.
type gossipRecorder struct {
	net      *simnet.Network
	id       simnet.NodeID
	winBytes int
	batches  [][]store.Entry
}

func (r *gossipRecorder) HandleMessage(m simnet.Message) {
	g, ok := m.Payload.(gossipMsg)
	if !ok {
		return
	}
	r.batches = append(r.batches, g.Entries)
	r.net.Send(r.id, m.From, KindGossipAck, gossipAckMsg{ID: g.AckID, WinBytes: r.winBytes, WinMsgs: 1})
}

// TestGossipPendingDrainsInArrivalOrder: gossip parked toward a replica
// with a small window leaves in the order it parked, batch after batch,
// whatever the entry sizes — so the batch count and every send are the
// same on every run.
func TestGossipPendingDrainsInArrivalOrder(t *testing.T) {
	net := newNet(13)
	p := BuildBalanced(net, 2, 1, DefaultConfig())[0]
	rec := &gossipRecorder{net: net, winBytes: 600}
	rec.id = net.AddNode(rec)
	p.runFlow(p.flow.window(rec.id, rec.winBytes, 1))

	var parked []string
	p.gossipMu.Lock()
	for i := 0; i < 30; i++ {
		oid := personOID(i)
		val := strings.Repeat("v", 1+(i*37)%90) // sizes vary entry to entry
		e := store.Entry{Kind: triple.ByOID, Triple: triple.T(oid, "name", val), Version: 1}
		p.mergeGossipLocked(rec.id, []store.Entry{e})
		parked = append(parked, oid)
	}
	p.gossipMu.Unlock()
	p.flushGossip(rec.id)
	net.Settle()

	var got []string
	for _, b := range rec.batches {
		for _, e := range b {
			got = append(got, e.Triple.OID)
		}
	}
	if len(rec.batches) < 3 {
		t.Fatalf("%d batches drained the buffer; the window should force several", len(rec.batches))
	}
	if !slices.Equal(got, parked) {
		t.Fatalf("batches left in order %v, want the arrival order %v", got, parked)
	}
}

func personOID(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "x"
}
