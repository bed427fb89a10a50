package simnet

import (
	"testing"
	"time"
)

// echoNode replies to "ping" with "pong" and records what it saw.
type echoNode struct {
	net      *Network
	id       NodeID
	received []Message
}

func (e *echoNode) HandleMessage(m Message) {
	e.received = append(e.received, m)
	if m.Kind == "ping" {
		e.net.Send(e.id, m.From, "pong", m.Payload)
	}
}

func newEcho(n *Network) *echoNode {
	e := &echoNode{net: n}
	e.id = n.AddNode(e)
	return e
}

func TestSendDeliver(t *testing.T) {
	n := New(Config{Latency: ConstantLatency(5 * time.Millisecond)})
	a, b := newEcho(n), newEcho(n)
	n.Send(a.id, b.id, "ping", 42)
	n.Run()
	if len(b.received) != 1 || b.received[0].Payload.(int) != 42 {
		t.Fatalf("b received %v", b.received)
	}
	if len(a.received) != 1 || a.received[0].Kind != "pong" {
		t.Fatalf("a received %v", a.received)
	}
	if got := a.received[0].Deliver; got != 10*time.Millisecond {
		t.Errorf("round trip delivered at %v, want 10ms", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration) {
		n := New(Config{Latency: UniformLatency{Min: time.Millisecond, Max: 20 * time.Millisecond}, Seed: 99})
		nodes := make([]*echoNode, 10)
		for i := range nodes {
			nodes[i] = newEcho(n)
		}
		for i := 0; i < 100; i++ {
			n.Send(nodes[i%10].id, nodes[(i*3+1)%10].id, "ping", i)
		}
		n.Run()
		return n.Stats(), n.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1.MessagesDelivered != s2.MessagesDelivered || t1 != t2 {
		t.Errorf("same seed must reproduce: %v@%v vs %v@%v",
			s1.MessagesDelivered, t1, s2.MessagesDelivered, t2)
	}
}

func TestOrderingByDeliveryTime(t *testing.T) {
	n := New(Config{Latency: ConstantLatency(time.Millisecond)})
	var order []int
	rec := &funcNode{fn: func(m Message) { order = append(order, m.Payload.(int)) }}
	id := n.AddNode(rec)
	src := n.AddNode(&funcNode{})
	// Scheduled out of order via timers with different delays.
	n.After(30*time.Millisecond, func() { n.Send(src, id, "x", 3) })
	n.After(10*time.Millisecond, func() { n.Send(src, id, "x", 1) })
	n.After(20*time.Millisecond, func() { n.Send(src, id, "x", 2) })
	n.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("delivery order = %v", order)
	}
}

type funcNode struct{ fn func(Message) }

func (f *funcNode) HandleMessage(m Message) {
	if f.fn != nil {
		f.fn(m)
	}
}

func TestLoss(t *testing.T) {
	n := New(Config{LossRate: 1.0, Seed: 1})
	a, b := newEcho(n), newEcho(n)
	for i := 0; i < 50; i++ {
		n.Send(a.id, b.id, "ping", i)
	}
	n.Run()
	if len(b.received) != 0 {
		t.Errorf("loss rate 1.0 delivered %d messages", len(b.received))
	}
	if n.Stats().MessagesDropped != 50 {
		t.Errorf("dropped = %d, want 50", n.Stats().MessagesDropped)
	}
}

func TestKillRevive(t *testing.T) {
	n := New(Config{})
	a, b := newEcho(n), newEcho(n)
	n.Kill(b.id)
	n.Send(a.id, b.id, "ping", 1)
	n.Run()
	if len(b.received) != 0 {
		t.Error("dead node must not receive")
	}
	n.Revive(b.id)
	n.Send(a.id, b.id, "ping", 2)
	n.Run()
	if len(b.received) != 1 {
		t.Error("revived node must receive")
	}
	if n.AliveCount() != 2 {
		t.Errorf("alive = %d", n.AliveCount())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	n := New(Config{})
	fired := false
	n.After(100*time.Millisecond, func() { fired = true })
	n.RunUntil(50 * time.Millisecond)
	if fired {
		t.Error("timer fired early")
	}
	if n.Now() != 50*time.Millisecond {
		t.Errorf("clock = %v", n.Now())
	}
	n.RunUntil(150 * time.Millisecond)
	if !fired {
		t.Error("timer did not fire")
	}
}

func TestRunWhile(t *testing.T) {
	n := New(Config{Latency: ConstantLatency(time.Millisecond)})
	count := 0
	rec := &funcNode{fn: func(m Message) { count++ }}
	id := n.AddNode(rec)
	src := n.AddNode(&funcNode{})
	for i := 0; i < 10; i++ {
		n.Send(src, id, "x", i)
	}
	n.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
}

func TestStatsPerKind(t *testing.T) {
	n := New(Config{})
	a, b := newEcho(n), newEcho(n)
	n.Send(a.id, b.id, "ping", nil)
	n.Send(a.id, b.id, "other", nil)
	n.Run()
	s := n.Stats()
	if s.PerKind["ping"] != 1 || s.PerKind["other"] != 1 || s.PerKind["pong"] != 1 {
		t.Errorf("per-kind stats = %v", s.PerKind)
	}
	n.ResetStats()
	if n.Stats().MessagesSent != 0 {
		t.Error("ResetStats must zero counters")
	}
}

func TestPairwiseLatencyStable(t *testing.T) {
	n := New(Config{Seed: 3})
	m := NewPairwiseLatency(WANLatency(), nil)
	d1 := m.Sample(n.Rand(), 1, 2)
	d2 := m.Sample(n.Rand(), 2, 1)
	if d1 != d2 {
		t.Errorf("pair latency not symmetric/stable: %v vs %v", d1, d2)
	}
	d3 := m.Sample(n.Rand(), 1, 3)
	if d3 == d1 {
		t.Log("different pairs coincidentally equal (allowed but unlikely)")
	}
}

func TestPlanetLabLatencyBounds(t *testing.T) {
	n := New(Config{Seed: 5})
	m := PlanetLabLatency()
	for i := 0; i < 1000; i++ {
		d := m.Sample(n.Rand(), 0, 1)
		if d < 10*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("latency %v out of clamped bounds", d)
		}
	}
}

// TestClusteredLatencyPicksModelBySite pins the two-site topology:
// nodes are assigned to sites by NodeID modulo Clusters, same-site
// pairs sample the intra-site (LAN) model, cross-site pairs the
// inter-site (WAN) model, and Clusters <= 1 degenerates to Intra.
func TestClusteredLatencyPicksModelBySite(t *testing.T) {
	const (
		lanMin, lanMax = 200 * time.Microsecond, 2 * time.Millisecond
		wanMin, wanMax = 5 * time.Millisecond, 400 * time.Millisecond
	)
	for _, tc := range []struct {
		name     string
		model    LatencyModel
		from, to NodeID
		min, max time.Duration
	}{
		{"even-even", TwoClusterLatency(), 0, 2, lanMin, lanMax},
		{"odd-odd", TwoClusterLatency(), 1, 7, lanMin, lanMax},
		{"self", TwoClusterLatency(), 4, 4, lanMin, lanMax},
		{"even-odd", TwoClusterLatency(), 0, 1, wanMin, wanMax},
		{"odd-even", TwoClusterLatency(), 5, 2, wanMin, wanMax},
		{"one site, cross parity", ClusteredLatency{Intra: LANLatency(), Inter: WANLatency(), Clusters: 1}, 0, 1, lanMin, lanMax},
		{"zero sites, cross parity", ClusteredLatency{Intra: LANLatency(), Inter: WANLatency()}, 3, 8, lanMin, lanMax},
	} {
		rng := New(Config{Seed: 7}).Rand()
		for i := 0; i < 1000; i++ {
			if d := tc.model.Sample(rng, tc.from, tc.to); d < tc.min || d > tc.max {
				t.Fatalf("%s: %d->%d sampled %v, outside [%v, %v]", tc.name, tc.from, tc.to, d, tc.min, tc.max)
			}
		}
	}
}

func TestWireSizeAccounting(t *testing.T) {
	n := New(Config{})
	a, b := newEcho(n), newEcho(n)
	n.Send(a.id, b.id, "big", sized{1000})
	s := n.Stats()
	if s.BytesSent != 64+1000 {
		t.Errorf("bytes = %d, want 1064", s.BytesSent)
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func BenchmarkSendDeliver(b *testing.B) {
	n := New(Config{Latency: ConstantLatency(time.Millisecond)})
	sink := n.AddNode(&funcNode{})
	src := n.AddNode(&funcNode{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(src, sink, "x", i)
		n.Step()
	}
}

// TestServiceDelaySerializes: a throttled node is a single-threaded
// server — a burst of B messages drains one per service interval, the
// last delivery lands at roughly link + B×delay, and MaxStall records
// the queueing tail. An unthrottled node in the same run is unaffected.
func TestServiceDelaySerializes(t *testing.T) {
	const (
		link  = time.Millisecond
		delay = 5 * time.Millisecond
		burst = 4
	)
	n := New(Config{Latency: ConstantLatency(link)})
	src, slow, fast := newEcho(n), newEcho(n), newEcho(n)
	n.SetServiceDelay(slow.id, delay)
	for i := 0; i < burst; i++ {
		n.Send(src.id, slow.id, "work", i)
		n.Send(src.id, fast.id, "work", i)
	}
	n.Run()
	if len(slow.received) != burst || len(fast.received) != burst {
		t.Fatalf("delivered %d slow / %d fast, want %d each", len(slow.received), len(fast.received), burst)
	}
	// All arrive at t=link; the i-th finishes service at link + (i+1)×delay.
	for i, m := range slow.received {
		want := link + time.Duration(i+1)*delay
		if m.Deliver != want {
			t.Errorf("slow message %d delivered at %v, want %v", i, m.Deliver, want)
		}
	}
	for _, m := range fast.received {
		if m.Deliver != link {
			t.Errorf("unthrottled node delayed: delivered at %v, want %v", m.Deliver, link)
		}
	}
	st := n.Stats()
	if got, want := st.MaxStall[slow.id], time.Duration(burst)*delay; got != want {
		t.Errorf("MaxStall[slow] = %v, want %v", got, want)
	}
	if st.MaxStall[fast.id] != 0 {
		t.Errorf("MaxStall[fast] = %v, want 0", st.MaxStall[fast.id])
	}

	// Clearing the throttle restores immediate delivery.
	n.SetServiceDelay(slow.id, 0)
	before := len(slow.received)
	n.Send(src.id, slow.id, "work", 99)
	n.Run()
	if m := slow.received[before]; m.Deliver-n.Now() != 0 && m.Deliver != n.Now() {
		t.Errorf("throttle not cleared: delivered at %v, now %v", m.Deliver, n.Now())
	}
}
