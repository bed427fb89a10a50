package netx_test

import (
	"sync"
	"testing"
	"time"

	"unistore/internal/keys"
	"unistore/internal/netx"
	"unistore/internal/pgrid"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// netxCluster is an in-process "multi-process" cluster: several netx
// transports on loopback TCP, each hosting a round-robin slice of one
// deterministically planned overlay. Round-robin placement (id mod
// procs) puts the members of each replica group on different
// transports, so killing one transport never destroys a partition.
type netxCluster struct {
	transports []*netx.Transport
	peers      [][]*pgrid.Peer // per transport, in hosted order
}

// opWait bounds a scan in simulated time (netx scales it to wall clock).
const opWait = 5 * time.Minute

func startNetxCluster(t *testing.T, procs, parts, replicas int, cfg pgrid.Config) *netxCluster {
	t.Helper()
	specs := pgrid.PlanSpecs(0, parts, replicas, nil, cfg, 99)
	c := &netxCluster{}
	for pi := 0; pi < procs; pi++ {
		var seeds []string
		if pi > 0 {
			seeds = []string{c.transports[0].Addr()}
		}
		tr, err := netx.New(netx.Config{
			Seeds: seeds, Seed: int64(pi + 1),
			DialTimeout: time.Second, RedialBackoff: 10 * time.Millisecond,
			Logf: t.Logf,
		}, pgrid.WireCodec{})
		if err != nil {
			t.Fatal(err)
		}
		var hosted []pgrid.NodeSpec
		for _, s := range specs {
			if int(s.ID)%procs == pi {
				hosted = append(hosted, s)
			}
		}
		peers, err := pgrid.BuildFromSpecs(tr, specs, hosted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.Start()
		c.transports = append(c.transports, tr)
		c.peers = append(c.peers, peers)
	}
	total := parts * replicas
	for _, tr := range c.transports {
		if !tr.WaitRoutes(total, 10*time.Second) {
			t.Fatalf("bootstrap did not converge: %v", tr.Routes())
		}
	}
	t.Cleanup(func() {
		for _, tr := range c.transports {
			tr.Close()
		}
	})
	return c
}

func (c *netxCluster) flush(t *testing.T) {
	t.Helper()
	for _, tr := range c.transports {
		tr.Flush(10 * time.Second)
	}
}

// loadAges inserts n "age" facts through a transport-0 peer, acked, and
// waits for replication to settle on every transport.
func (c *netxCluster) loadAges(t *testing.T, n int) {
	t.Helper()
	w := c.peers[0][0]
	handles := make([]*pgrid.Handle, 0, n)
	for i := 0; i < n; i++ {
		tr := triple.Triple{OID: oid(i), Attr: "age", Val: triple.N(float64(20 + i%50))}
		handles = append(handles, w.InsertTripleAcked(tr, uint64(i+1), nil))
	}
	for i, h := range handles {
		if res := h.Wait(30 * time.Second); !res.Complete {
			t.Fatalf("insert %d incomplete: %+v", i, res)
		}
	}
	// Acks confirm the primaries; the replica push is fire-and-forget,
	// so drain the pipes before anyone starts killing transports.
	c.flush(t)
	c.flush(t)
}

func oid(i int) string {
	return string([]byte{'o', byte('a' + i/26), byte('a' + i%26)})
}

// scanOrigin picks a transport-0 peer not responsible for the probed
// region, so the scan's pages stream in over TCP.
func (c *netxCluster) scanOrigin(t *testing.T) *pgrid.Peer {
	t.Helper()
	probe := triple.AVKey("age", triple.N(0))
	for _, p := range c.peers[0] {
		if !p.Responsible(probe) {
			return p
		}
	}
	t.Fatal("no transport-0 peer outside the age region")
	return nil
}

func distinctOIDs(entries []store.Entry) map[string]bool {
	seen := make(map[string]bool)
	for _, e := range entries {
		seen[e.Triple.OID] = true
	}
	return seen
}

// TestPGridOverNetxEquivalence runs the overlay's insert/scan path over
// real TCP and checks the results a simnet cluster would produce: every
// inserted fact comes back exactly once from a complete range scan.
func TestPGridOverNetxEquivalence(t *testing.T) {
	cfg := pgrid.DefaultConfig()
	const facts = 40
	c := startNetxCluster(t, 2, 4, 2, cfg)
	c.loadAges(t, facts)

	q := c.scanOrigin(t)
	res := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
	if !res.Complete {
		t.Fatalf("scan incomplete: %+v", res)
	}
	seen := distinctOIDs(res.Entries)
	if len(seen) != facts {
		t.Fatalf("scan found %d distinct facts, want %d", len(seen), facts)
	}
	if len(res.Entries) != facts {
		t.Errorf("scan returned %d entries for %d facts (duplicates)", len(res.Entries), facts)
	}
}

// TestPGridOverNetxMidScanTransportDeath drops a whole transport (all
// its TCP connections and hosted peers) after the first page of a
// paged scan has streamed. The origin's pull hedge and coverage retry
// must finish the scan from the surviving replicas.
func TestPGridOverNetxMidScanTransportDeath(t *testing.T) {
	cfg := pgrid.DefaultConfig()
	cfg.PageSize = 4
	const facts = 40
	c := startNetxCluster(t, 2, 4, 2, cfg)
	c.loadAges(t, facts)

	q := c.scanOrigin(t)
	var (
		mu       sync.Mutex
		streamed []store.Entry
		kill     sync.Once
	)
	h := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil, pgrid.WithPages(func(_ keys.Key, es []store.Entry) {
		mu.Lock()
		streamed = append(streamed, es...)
		mu.Unlock()
		// First page landed: sever every connection to transport 1,
		// mid-response. Close blocks until its goroutines exit, so run
		// it off the inbox worker delivering this page.
		kill.Do(func() { go c.transports[1].Close() })
	}))
	res := h.Wait(2 * time.Minute)
	if !res.Complete {
		t.Fatalf("scan incomplete after transport death: %+v", res)
	}
	mu.Lock()
	seen := distinctOIDs(streamed)
	mu.Unlock()
	if len(seen) != facts {
		t.Fatalf("streamed %d distinct facts, want %d", len(seen), facts)
	}
	if q.PendingOps() != 0 {
		t.Errorf("pending ops leaked: %d", q.PendingOps())
	}
}

// TestPGridOverNetxQueryAfterTransportDeath kills transport 1 outright
// and then issues fresh queries: the read path's replica failover must
// answer completely from transport 0's halves of every replica group.
func TestPGridOverNetxQueryAfterTransportDeath(t *testing.T) {
	cfg := pgrid.DefaultConfig()
	const facts = 30
	c := startNetxCluster(t, 2, 4, 2, cfg)
	c.loadAges(t, facts)

	if err := c.transports[1].Close(); err != nil {
		t.Fatal(err)
	}
	q := c.scanOrigin(t)
	res := q.RangeQuery(triple.ByAV, triple.AVPrefixRange("age"), nil).Wait(opWait)
	if !res.Complete {
		t.Fatalf("post-death scan incomplete: %+v", res)
	}
	if seen := distinctOIDs(res.Entries); len(seen) != facts {
		t.Fatalf("post-death scan found %d distinct facts, want %d", len(seen), facts)
	}
}
