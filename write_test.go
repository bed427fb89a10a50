// Write-path tests: every Cluster write is an acked overlay write, so
// the index entries loss swallows are re-sent until acked, and a seeded
// lossy run sends exactly the same messages every time.
package unistore_test

import (
	"fmt"
	"testing"
	"time"

	"unistore"
)

// TestInsertUnderLossStoresEveryEntry: on a lossy network, Insert must
// still place every index entry (3 per triple) — a lost insert or ack
// is retried, not forgotten.
func TestInsertUnderLossStoresEveryEntry(t *testing.T) {
	c := unistore.New(unistore.Config{Peers: 32, Seed: 5, LossRate: 0.05})
	var ts []unistore.Triple
	for i := 0; i < 60; i++ {
		ts = append(ts, unistore.T(fmt.Sprintf("p%02d", i), "name", fmt.Sprintf("person %02d", i)))
	}
	c.Insert(ts...)
	stored := 0
	for _, n := range c.StorageLoad() {
		stored += n
	}
	if stored != 3*len(ts) {
		t.Fatalf("stored %d index entries, want %d", stored, 3*len(ts))
	}
}

// TestLossyWritesRepeatable: the same seeded lossy write workload, run
// on fresh clusters in one process, must send and drop the same
// messages, end at the same simulated instant and fail the same number
// of writes — no send may depend on map iteration order.
func TestLossyWritesRepeatable(t *testing.T) {
	type outcome struct {
		sent, dropped, failed int
		now                   time.Duration
	}
	run := func() outcome {
		c := unistore.New(unistore.Config{Peers: 32, Replicas: 2, Seed: 3, LossRate: 0.3})
		var o outcome
		for i := 0; i < 60; i++ {
			tr := unistore.TN(fmt.Sprintf("w%02d", i), "age", float64(20+i%40))
			if err := c.InsertAcked(tr, 10*time.Minute); err != nil {
				o.failed++
			}
		}
		c.Net().Settle()
		st := c.Net().Stats()
		o.sent, o.dropped, o.now = st.MessagesSent, st.MessagesDropped, c.Net().Now()
		return o
	}
	first := run()
	t.Logf("lossy writes: %d sent, %d dropped, %d of 60 failed, %v simulated", first.sent, first.dropped, first.failed, first.now)
	for i := 1; i < 8; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged: %+v, first run %+v", i, got, first)
		}
	}
}
