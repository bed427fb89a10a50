// Message-budget regression guard: the ranked top-5, warm index-join,
// paged full-scan, group-by, churn top-k, restart catch-up and
// flow-control scenarios (internal/benchscen — the one set of
// constructors every simulated measurement shares) run on the
// deterministic simnet under plain `go test` and fail two ways: when a
// message, byte or simulated-time count exceeds its checked-in budget,
// and when a fast path stops beating the baseline measured beside it on
// the shipped configuration (the cold first run of the index join, the
// centralized aggregation plan, the empty-disk full sync, bulk streams
// under an infinite credit window). The budgets sit ~25-40% above the
// measured values, so a future change that makes the message layer
// chatty — losing the routing-cache fast path, breaking probe
// batching, pulling pages past an early-out, retrying replicas
// unboundedly — fails CI instead of silently regressing. The measured
// values are the t.Logf lines of `go test -v -run MessageBudget .`.
package unistore_test

import (
	"slices"
	"testing"

	"unistore/internal/benchscen"
	"unistore/internal/core"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
)

// Checked-in budgets (messages per query, deterministic 64-peer
// simnet). Measured at PR 3: topk 32, index-join warm 11, paged scan
// 106. Measured at PR 4: churn top-k with 10% dead peers and failover
// retries 35. Measured at PR 5: pushed-down GROUP BY over ~600
// publication rows 44 (the centralized fallback moves 226).
// Measured at PR 8: restart-rejoin catch-up on the 16-peer durability
// scenario 40 (the empty-disk full sync moves 314).
// Re-measured at PR 10 (deterministic spec-seeded routing + shortest-
// path reference choice): topk 25, index-join warm 13, paged scan 94,
// group-by 38, churn top-k 39, rejoin catch-up 41 — budgets kept.
const (
	budgetTopK          = 40
	budgetIndexJoinWarm = 16
	budgetPagedScan     = 135
	budgetChurnTopK     = 50
	budgetGroupByAgg    = 60
	budgetRejoinCatchup = 60
	// budgetChurnTopKSimMS bounds the churn top-5's simulated time.
	// Measured: 1008 ms — the scan-level re-shower at ten hedge
	// deadlines recovers the swallowed branches in one round. A read
	// path that stops failing over waits out the 120 s operation
	// deadline instead.
	budgetChurnTopKSimMS = 1350
	// budgetFlowInflightBytes bounds the worst per-peer peak of queued
	// bytes on the slow-replica flow scenario with credit windows on.
	// Measured at PR 9: 32.8KB controlled (371KB uncontrolled) — a
	// sender that stops honoring receiver windows blows through this.
	// Re-measured at PR 10: 56.3KB — deterministic shortest-path
	// routing funnels more concurrent senders (one credit window each)
	// through subtree-root peers; an ungated bulk stream still lands
	// 5x+ above the budget.
	budgetFlowInflightBytes = 72 << 10
)

// measure runs one query and returns its settled message and byte
// counts.
func measure(t *testing.T, c *core.Cluster, src string) (msgs, bytes int) {
	t.Helper()
	before := c.Net().Stats()
	res, err := c.QueryFrom(0, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatalf("%q returned nothing", src)
	}
	c.Net().Settle()
	after := c.Net().Stats()
	return after.MessagesSent - before.MessagesSent, after.BytesSent - before.BytesSent
}

func TestMessageBudgetRankedTopK(t *testing.T) {
	msgs, _ := measure(t, benchscen.TopK(), benchscen.TopKQuery)
	if msgs > budgetTopK {
		t.Errorf("ranked top-5 sent %d messages, budget %d", msgs, budgetTopK)
	}
	t.Logf("ranked top-5: %d messages (budget %d)", msgs, budgetTopK)
}

// runIndexJoin executes the pinned index-join plan once and returns its
// settled message count.
func runIndexJoin(t *testing.T, c *core.Cluster, plan *physical.Plan) int {
	t.Helper()
	before := c.Net().Stats().MessagesSent
	bs, _ := c.Engine(0).RunPlan(plan)
	c.Net().Settle()
	if len(bs) == 0 {
		t.Fatal("index join returned nothing")
	}
	return c.Net().Stats().MessagesSent - before
}

// TestMessageBudgetIndexJoinWarm is the routing-cache budget: once the
// origin has learned the partition map of the probed OIDs, the join
// probes direct, batched per responsible peer — within the budget and
// at least 30% below the cold first run on the same cluster, which
// routes every probe hop by hop while the caches learn.
func TestMessageBudgetIndexJoinWarm(t *testing.T) {
	plan, err := benchscen.IndexJoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	c := benchscen.IndexJoin()
	cold := runIndexJoin(t, c, plan)
	msgs := runIndexJoin(t, c, plan)
	if msgs > budgetIndexJoinWarm {
		t.Errorf("warm index join sent %d messages, budget %d", msgs, budgetIndexJoinWarm)
	}
	if 10*msgs > 7*cold {
		t.Errorf("warm index join sent %d messages, cold run %d — need at least 30%% fewer", msgs, cold)
	}
	t.Logf("warm index join: %d messages (budget %d; cold %d)", msgs, budgetIndexJoinWarm, cold)
}

// TestMessageBudgetPagedScan is the paging budget: the exhaustive scan
// at page size 8 stays within its message budget, and no single
// response grows past the byte ceiling a page of the dataset's largest
// entries can reach — a peer that stops honoring the page bound ships
// a whole partition in one message and trips the second check.
func TestMessageBudgetPagedScan(t *testing.T) {
	c, triples := benchscen.Scan()
	c.Net().ResetStats() // max-size tracking starts at the measured query
	msgs, _ := measure(t, c, benchscen.ScanQuery)
	if msgs > budgetPagedScan {
		t.Errorf("paged full scan sent %d messages, budget %d", msgs, budgetPagedScan)
	}
	maxResp := c.Net().Stats().MaxSizePerKind[pgrid.KindResponse]
	bound := benchscen.PageBound(triples, benchscen.ScanPageSize)
	if maxResp > bound {
		t.Errorf("largest paged response %dB exceeds the page bound %dB", maxResp, bound)
	}
	t.Logf("paged full scan: %d messages (budget %d), largest response %dB (page bound %dB)",
		msgs, budgetPagedScan, maxResp, bound)
}

// TestMessageBudgetGroupByAgg is the in-network aggregation budget:
// the pushed-down GROUP BY must keep shipping group states, not rows —
// losing the pushdown (or paging group pages past need) trips it — and
// must move fewer messages AND fewer bytes than the centralized
// fallback pinned on the same data.
func TestMessageBudgetGroupByAgg(t *testing.T) {
	c, _ := benchscen.GroupByAgg(true)
	msgs, bytes := measure(t, c, benchscen.GroupByAggQuery)
	if msgs > budgetGroupByAgg {
		t.Errorf("pushed-down group-by sent %d messages, budget %d", msgs, budgetGroupByAgg)
	}
	central, _ := benchscen.GroupByAgg(false)
	cMsgs, cBytes := measure(t, central, benchscen.GroupByAggQuery)
	if msgs >= cMsgs {
		t.Errorf("pushed-down group-by sent %d messages, centralized %d — pushdown must send fewer", msgs, cMsgs)
	}
	if bytes >= cBytes {
		t.Errorf("pushed-down group-by moved %dB, centralized %dB — pushdown must move fewer", bytes, cBytes)
	}
	t.Logf("pushed-down group-by: %d messages / %dB (budget %d; centralized %d messages / %dB)",
		msgs, bytes, budgetGroupByAgg, cMsgs, cBytes)
}

// TestMessageBudgetChurnTopK is the replica-read budget: the ranked
// top-5 with 10% of the nodes killed mid-flight must recover through
// hedges and re-showers without blowing the message budget — failover
// is a bounded handful of extra envelopes, not a broadcast storm — and
// within the simulated-time budget, far from the operation deadline a
// read path without failover waits out on the branches churn
// swallowed.
func TestMessageBudgetChurnTopK(t *testing.T) {
	cr, err := benchscen.ChurnTopKRun(benchscen.ChurnTopK())
	if err != nil {
		t.Fatal(err)
	}
	if cr.Rows == 0 {
		t.Fatal("churn top-k returned nothing")
	}
	if cr.Dead == 0 {
		t.Fatal("churn top-k killed nobody")
	}
	if cr.Msgs > budgetChurnTopK {
		t.Errorf("churn top-5 sent %d messages, budget %d", cr.Msgs, budgetChurnTopK)
	}
	if cr.SimMS > budgetChurnTopKSimMS {
		t.Errorf("churn top-5 took %.0f sim-ms, budget %d", cr.SimMS, budgetChurnTopKSimMS)
	}
	t.Logf("churn top-5: %d messages with %d dead peers (budget %d), %.0f sim-ms (budget %d)",
		cr.Msgs, cr.Dead, budgetChurnTopK, cr.SimMS, budgetChurnTopKSimMS)
}

// TestMessageBudgetRejoinCatchup is the restart-recovery budget: a
// WAL-recovered replica rejoining its group must catch up through the
// digest delta — a join handshake, two digests, one pull with identity
// hashes, and pages carrying only the writes it missed. Losing the
// delta (shipping whole buckets, or re-pulling buckets the rejoiner is
// ahead on) costs hundreds of messages on this scenario and trips the
// budget; the same join onto an empty disk, which pulls every bucket,
// runs on the same cluster as the full-sync baseline the delta must
// beat on messages AND bytes, and must itself converge exactly.
func TestMessageBudgetRejoinCatchup(t *testing.T) {
	r, err := benchscen.DurabilityRun()
	if err != nil {
		t.Fatal(err)
	}
	if !r.DeltaExact {
		t.Fatal("rejoined replica did not converge to its sibling")
	}
	if !r.FullExact {
		t.Fatal("empty-disk full-sync replica did not converge to its sibling")
	}
	if r.Recovered != r.AckedAtKill {
		t.Fatalf("WAL recovery rebuilt %d facts, victim acked %d", r.Recovered, r.AckedAtKill)
	}
	if r.DeltaMsgs > budgetRejoinCatchup {
		t.Errorf("rejoin catch-up sent %d messages, budget %d", r.DeltaMsgs, budgetRejoinCatchup)
	}
	if r.DeltaMsgs >= r.FullMsgs {
		t.Errorf("delta catch-up sent %d messages, full sync %d — delta must send fewer", r.DeltaMsgs, r.FullMsgs)
	}
	if r.DeltaBytes >= r.FullBytes {
		t.Errorf("delta catch-up moved %dB, full sync %dB — delta must move fewer", r.DeltaBytes, r.FullBytes)
	}
	t.Logf("rejoin catch-up: recovered %d/%d acked facts, %d messages / %dB (budget %d; full sync %d messages / %dB)",
		r.Recovered, r.AckedAtKill, r.DeltaMsgs, r.DeltaBytes, budgetRejoinCatchup, r.FullMsgs, r.FullBytes)
}

// TestMessageBudgetFlowInflightBytes is the backpressure budget: under
// the mixed read/write workload with one 10x-throttled replica, no
// peer's inbound queue may peak above the checked-in byte budget under
// the scenario's credit windows, and the throttled rejoiner must still converge
// exactly. Losing credit gating on any bulk stream (gossip fan-out,
// digest catch-up, paged scans) multiplies the peak several-fold and
// trips this before it ships. The same workload under an infinite
// window is the uncontrolled baseline: the scenario's windows must lower
// the peak, must not lengthen the slow replica's tail stall, and must
// change no answer.
func TestMessageBudgetFlowInflightBytes(t *testing.T) {
	res, err := benchscen.FlowRun(true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := benchscen.FlowRun(false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejoinExact {
		t.Fatal("throttled rejoiner did not converge to its sibling")
	}
	if !off.RejoinExact {
		t.Fatal("throttled rejoiner did not converge under the infinite window")
	}
	if len(res.Rows) == 0 {
		t.Fatal("flow scenario returned no rows")
	}
	if !slices.Equal(res.Rows, off.Rows) {
		t.Errorf("credit windows changed query results (%d rows vs %d uncontrolled)", len(res.Rows), len(off.Rows))
	}
	if res.MaxInflightBytes > budgetFlowInflightBytes {
		t.Errorf("peak in-flight %dB per peer, budget %dB", res.MaxInflightBytes, budgetFlowInflightBytes)
	}
	if res.MaxInflightBytes >= off.MaxInflightBytes {
		t.Errorf("peak in-flight %dB under credit windows, %dB uncontrolled — credits must lower the peak",
			res.MaxInflightBytes, off.MaxInflightBytes)
	}
	if res.SlowStallMS > off.SlowStallMS {
		t.Errorf("slow replica's tail stall %.0fms under credit windows, %.0fms uncontrolled — credits must not worsen it",
			res.SlowStallMS, off.SlowStallMS)
	}
	if res.FlowBulkSends == 0 {
		t.Error("no credit-gated bulk sends fired; flow control is vacuous")
	}
	t.Logf("flow: peak in-flight %dB (budget %dB; uncontrolled %dB), tail stall %.0fms (uncontrolled %.0fms), %d rows, %d bulk sends / %d stalls",
		res.MaxInflightBytes, budgetFlowInflightBytes, off.MaxInflightBytes,
		res.SlowStallMS, off.SlowStallMS, len(res.Rows), res.FlowBulkSends, res.FlowStalls)
}
