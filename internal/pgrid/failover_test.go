package pgrid

import (
	"fmt"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/trace"
	"unistore/internal/triple"
)

// TestPagePullHedgeRecoversFastMidPaginationDeath: the pull-level
// hedge must recover a server that dies between pages within roughly
// one hedge interval — not the 10× scan-level re-shower backstop — and
// deliver every fact exactly once.
func TestPagePullHedgeRecoversFastMidPaginationDeath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net, peers := loadReplicated(81, 2, 2, 40, cfg)
	// Two partitions × two replicas: originate outside the age region
	// so the whole stream is remote.
	probe := triple.AVKey("age", triple.N(0))
	var q *Peer
	for _, p := range peers {
		if !p.Responsible(probe) {
			q = p
			break
		}
	}
	if q == nil {
		t.Fatal("no peer outside the age region")
	}
	var streamed []store.Entry
	start := net.Now()
	h := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil, WithPages(func(_ keys.Key, es []store.Entry) {
		streamed = append(streamed, es...)
	}))
	// Step until the first remote page landed — the pull for the next
	// page is then already in flight — and kill its server.
	for len(streamed) == 0 && net.Step() {
	}
	if len(streamed) == 0 {
		t.Fatal("no page ever streamed")
	}
	killed := false
	for _, p := range peers {
		if p != q && p.Stats().PagesServed > 0 {
			net.Kill(p.ID())
			killed = true
		}
	}
	if !killed {
		t.Fatal("no remote server to kill")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("scan incomplete after mid-pagination death: %+v", res)
	}
	elapsed := net.Now() - start
	if st := q.Stats(); st.PagePullHedges == 0 {
		t.Errorf("pull hedge never fired (stats %+v)", st)
	}
	// Recovery must beat the scan-level backstop (hedge × scanRetryFactor).
	if backstop := DefaultHedgeAfter * scanRetryFactor; elapsed >= backstop {
		t.Errorf("recovery took %v, want < %v (the pull hedge, not the re-shower, must recover)",
			elapsed, backstop)
	}
	seen := map[string]int{}
	for _, e := range streamed {
		seen[e.Triple.OID]++
	}
	if len(seen) != 40 {
		t.Errorf("streamed %d distinct facts, want 40", len(seen))
	}
	for oid, n := range seen {
		if n != 1 {
			t.Errorf("fact %s streamed %d times, want once", oid, n)
		}
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// slowServersFor returns a peer whose partition lies outside r and
// slows every other peer past the pull hedge deadline: each page pull
// is then hedged while its server still holds the original. With one
// replica the routed hedge reaches that same server, which answers both
// pulls from one cursor — a forked stream.
func slowServersFor(t *testing.T, net *simnet.Network, peers []*Peer, r keys.Range) *Peer {
	t.Helper()
	var origin *Peer
	for _, p := range peers {
		if !r.OverlapsPrefix(p.Path()) {
			origin = p
			break
		}
	}
	if origin == nil {
		t.Fatal("every partition overlaps the range")
	}
	for _, p := range peers {
		if p != origin {
			net.SetServiceDelay(p.ID(), DefaultHedgeAfter*3/2)
		}
	}
	return origin
}

// TestRowPullHedgeForkDeliversOnce: the original pull and the hedge of
// a forked row stream advertise different windows (the default and the
// floor one, in either order), so the server answers both from one
// cursor with pages of different lengths. Whichever page lands second
// repeats rows of the first — a longer one runs past its cursor, a
// shorter one ends before it — and the origin must drop it whole.
func TestRowPullHedgeForkDeliversOnce(t *testing.T) {
	for _, tc := range []struct {
		name        string
		pull, hedge int // FlowWindowBytes; 1 is floored at minAdvertiseBytes
	}{
		{"hedge-longer", 1, DefaultFlowWindowBytes},
		{"hedge-shorter", DefaultFlowWindowBytes, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PageSize = 64
			cfg.FlowWindowBytes = tc.pull
			net, peers := loadReplicated(91, 4, 1, 200, cfg)
			r := triple.AVPrefixRange("age")
			origin := slowServersFor(t, net, peers, r)
			var streamed []store.Entry
			h := origin.RangeQuery(triple.ByAV, r, nil, WithPages(func(_ keys.Key, es []store.Entry) {
				streamed = append(streamed, es...)
			}))
			// The first page's pull left under the pull window.
			for len(streamed) == 0 && net.Step() {
			}
			origin.cfg.FlowWindowBytes = tc.hedge
			if res := h.Wait(0); !res.Complete {
				t.Fatalf("forked scan incomplete: %+v", res)
			}
			if origin.Stats().PagePullHedges == 0 {
				t.Fatal("no pull was hedged; the stream never forked")
			}
			checkExact(t, streamed, 200)
		})
	}
}

// TestSiblingResumeWithDivergentBucketOrder: replicas may hold one fat
// bucket in different orders (digest pull and racing inserts apply in
// arrival order), so a sibling resuming a stream mid-bucket skips
// SkipAtLo rows in ITS order and may re-serve the cursor's last row.
// That page comes from another server than the cursor's, so it is no
// fork of the stream and must be accepted: the scan completes within
// the pull hedge's reach and delivers every row the first server held.
func TestSiblingResumeWithDivergentBucketOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net := newNet(93)
	peers := build(net, 93, 2, 2, cfg)
	k := triple.AVKey("age", triple.N(7))
	var owners []*Peer
	var q *Peer
	for _, p := range peers {
		if p.Responsible(k) {
			owners = append(owners, p)
		} else if q == nil {
			q = p
		}
	}
	if len(owners) != 2 || q == nil {
		t.Fatalf("want two replicas of the bucket and an outside origin; got %d owners", len(owners))
	}
	fact := func(oid string) store.Entry {
		tr := triple.TN(oid, "age", 7)
		return store.Entry{Kind: triple.ByAV, Key: k, Triple: tr, Version: 1}
	}
	const rows = 6
	for _, o := range owners {
		for i := 0; i < rows; i++ {
			o.store.Apply(fact(fmt.Sprintf("dv%d", i)))
		}
	}
	var streamed []store.Entry
	start := net.Now()
	h := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil, WithPages(func(_ keys.Key, es []store.Entry) {
		streamed = append(streamed, es...)
	}))
	// The first page (dv0, dv1) landed and its pull is in flight.
	for len(streamed) == 0 && net.Step() {
	}
	server, sibling := owners[0], owners[1]
	if sibling.Stats().PagesServed > 0 {
		server, sibling = sibling, server
	}
	// The sibling holds a row the server never saw ahead of the shared
	// ones: skipping two rows in its order re-serves dv1.
	sibling.store.DropRange(triple.ByAV, triple.AVPrefixRange("age"))
	sibling.store.Apply(fact("dvx"))
	for i := 0; i < rows; i++ {
		sibling.store.Apply(fact(fmt.Sprintf("dv%d", i)))
	}
	net.Kill(server.ID())
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("sibling resume never advanced the stream: %+v", res)
	}
	if backstop := DefaultHedgeAfter * scanRetryFactor; net.Now()-start >= backstop {
		t.Errorf("resume took %v, want < %v", net.Now()-start, backstop)
	}
	seen := map[string]int{}
	for _, e := range streamed {
		seen[e.Triple.OID]++
	}
	for i := 0; i < rows; i++ {
		if oid := fmt.Sprintf("dv%d", i); seen[oid] == 0 {
			t.Errorf("row %s never streamed (got %v)", oid, seen)
		}
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestPagePullHedgeQuietOnHealthyStream: a healthy paged scan must not
// spend hedges — the timers dissolve as cursors progress.
func TestPagePullHedgeQuietOnHealthyStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 2
	net, peers := loadReplicated(83, 4, 2, 40, cfg)
	q := peers[0]
	res := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
	net.Run()
	if !res.Complete {
		t.Fatalf("healthy scan incomplete: %+v", res)
	}
	if st := q.Stats(); st.PagePullHedges != 0 {
		t.Errorf("healthy stream spent %d pull hedges", st.PagePullHedges)
	}
}

// TestAckedInsertRetriesPastDeadOwner: an acked insert whose
// responsible primary dies with the envelope in flight must re-route
// after the hedge deadline, land on a live replica, and complete —
// the write-path mirror of probe failover.
func TestAckedInsertRetriesPastDeadOwner(t *testing.T) {
	net, peers := loadReplicated(85, 16, 2, 16, DefaultConfig())
	origin := peers[0]
	tr := triple.TN("wnew", "age", 999)
	h := origin.InsertTripleAcked(tr, 7, nil)
	// The three index envelopes are in flight; kill a loaded
	// responsible peer (not the origin) before delivery.
	responsible := func(p *Peer) bool {
		for _, kind := range triple.AllIndexKinds {
			if p.Responsible(triple.IndexKey(tr, kind)) {
				return true
			}
		}
		return false
	}
	killed := false
	for steps := 0; steps < 10000 && !killed; steps++ {
		for _, p := range peers[1:] {
			if responsible(p) && net.Load(p.ID()) > 0 && net.Alive(p.ID()) {
				net.Kill(p.ID())
				killed = true
				break
			}
		}
		if !killed && !net.Step() {
			break
		}
	}
	if !killed {
		t.Skip("no responsible peer ever held the envelope (all delivered locally)")
	}
	res := h.Wait(0)
	if !res.Complete {
		t.Fatalf("acked insert incomplete after owner death: %+v", res)
	}
	if origin.Stats().WriteRetries == 0 {
		t.Error("write retry never fired")
	}
	// The fact must be readable through every index from another peer.
	for _, kind := range triple.AllIndexKinds {
		got := peers[1].Lookup(kind, []keys.Key{triple.IndexKey(tr, kind)}, nil).Wait(opWait)
		found := false
		for _, e := range got.Entries {
			if e.Triple.Equal(tr) {
				found = true
			}
		}
		if !found {
			t.Errorf("fact missing from index %v after write failover", kind)
		}
	}
	if origin.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", origin.PendingOps())
	}
}

// TestAckedInsertDuplicateAcksDoNotOvercount: a retried entry whose
// original also landed produces two acks; the second must not complete
// the operation while another entry is still unacked.
func TestAckedInsertDuplicateAcksDoNotOvercount(t *testing.T) {
	net, peers := loadReplicated(87, 4, 1, 8, DefaultConfig())
	_ = net
	p := peers[0]
	op := &pendingOp{needResponses: 3, insertPend: map[uint8]store.Entry{0: {}, 1: {}, 2: {}}}
	qid := p.newOp(op, trace.OpInsert, nil, opSettings{})
	p.handleAck(ackMsg{QID: qid, Seq: 0}, p.id, 0)
	p.handleAck(ackMsg{QID: qid, Seq: 0}, p.id, 0) // duplicate
	p.handleAck(ackMsg{QID: qid, Seq: 1}, p.id, 0)
	h := &Handle{peer: p, op: op, qid: qid}
	if h.Done() {
		t.Fatal("duplicate ack completed the operation early")
	}
	p.handleAck(ackMsg{QID: qid, Seq: 2}, p.id, 0)
	if !h.Done() {
		t.Fatal("distinct acks did not complete the operation")
	}
}

// TestInsertRetryBudgetBounded: with every replica of a partition dead
// the retry loop must stop at its attempt budget, not spin forever.
func TestInsertRetryBudgetBounded(t *testing.T) {
	net, peers := loadReplicated(89, 4, 1, 8, DefaultConfig())
	origin := peers[0]
	tr := triple.TN("wdead", "age", 1234)
	// Kill every OTHER peer: only locally-owned entries can ack.
	for _, p := range peers[1:] {
		net.Kill(p.ID())
	}
	h := origin.InsertTripleAcked(tr, 9, nil)
	res := h.Wait(0)
	_ = res
	if got := origin.Stats().WriteRetries; got > 3*maxProbeAttempts {
		t.Errorf("retry budget blown: %d write retries", got)
	}
	if !h.Done() {
		// The op deadline timer eventually expires it; drive there.
		net.RunUntil(net.Now() + 3*time.Minute)
	}
	if !h.Done() {
		t.Error("acked insert never terminated with all owners dead")
	}
}
