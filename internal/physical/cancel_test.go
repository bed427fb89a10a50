package physical_test

import (
	"context"
	"fmt"
	"testing"

	. "unistore/internal/physical"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// shipPlan compiles a three-step join that migrates at step 2 and
// whose final step resolves every bound person with an exact OID probe
// — so the HOSTED remainder has real overlay work a cancel can save.
func shipPlan(t testing.TB) *Plan {
	t.Helper()
	q, err := vql.ParseQuery(`SELECT ?n,?a,?e WHERE {(?p,'name',?n) (?p,'age',?a) (?p,'email',?e)}`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Steps[1].Ship = true
	plan.Steps[2].Strat = StratOIDLookup
	return plan
}

func cancelCorpus() []triple.Triple {
	var ts []triple.Triple
	for i := 0; i < 120; i++ {
		// Leading-character variation spreads the OID keys over the
		// partition space (FNV's high bytes barely move for strings
		// differing only at the tail), so the host's probes really
		// travel.
		id := fmt.Sprintf("%c-cx%03d", 'a'+i%26, i)
		ts = append(ts,
			triple.T(id, "name", fmt.Sprintf("nm%03d", i)),
			triple.TN(id, "age", float64(20+i%50)),
			triple.T(id, "email", fmt.Sprintf("e%03d@x.org", i)))
	}
	return ts
}

// totalPending sums pending overlay operations across the overlay.
func totalPending(tn *testNet) int {
	n := 0
	for _, p := range tn.peers {
		n += p.PendingOps()
	}
	return n
}

// totalHosted sums live hosted plans across the engines.
func totalHosted(tn *testNet) int {
	n := 0
	for _, e := range tn.engines {
		n += e.HostedPlans()
	}
	return n
}

// TestCancelPropagatesToMigratedHost: canceling a query whose plan has
// migrated must send a cancel to the hosting peer, which stops the
// hosted remainder — saving its network traffic — and must leave no
// pending overlay operation or live hosted plan anywhere.
func TestCancelPropagatesToMigratedHost(t *testing.T) {
	corpus := cancelCorpus()

	// Reference: the same shipped query run to completion.
	ref := buildNet(t, 32, 211, nil)
	ref.load(corpus)
	ref.net.ResetStats()
	_, ex := ref.engines[0].RunPlanCtx(context.Background(), shipPlan(t))
	if !ex.Done() {
		t.Fatal("reference shipped query did not complete")
	}
	fullMsgs := ref.net.Stats().MessagesSent

	// Canceled run: same topology and data, cancel right after the
	// plan migrates.
	tn := buildNet(t, 32, 211, nil)
	tn.load(corpus)
	tn.net.ResetStats()
	cx := tn.engines[0].Open(context.Background(), shipPlan(t)).Exec()
	for !cx.Migrated() && tn.net.Step() {
	}
	if !cx.Migrated() {
		t.Fatal("plan never migrated")
	}
	cx.Cancel()
	if !cx.Done() {
		t.Fatal("canceled query must complete immediately for the local waiter")
	}
	tn.net.Settle()
	canceledMsgs := tn.net.Stats().MessagesSent

	if n := totalPending(tn); n != 0 {
		t.Errorf("%d pending overlay operations leaked after cancel", n)
	}
	if n := totalHosted(tn); n != 0 {
		t.Errorf("%d hosted plans still live after cancel", n)
	}
	if canceledMsgs >= fullMsgs {
		t.Errorf("cancel saved nothing: %d messages vs %d for the full run — the hosted remainder kept working",
			canceledMsgs, fullMsgs)
	}
	t.Logf("shipped-query cancel: %d messages vs %d full", canceledMsgs, fullMsgs)
}

// TestCancelBeforePlanArrives: a cancel that overtakes its planMsg
// must tombstone the plan so it is dropped on arrival, not executed.
func TestCancelBeforePlanArrives(t *testing.T) {
	corpus := cancelCorpus()
	tn := buildNet(t, 32, 212, nil)
	tn.load(corpus)
	cx := tn.engines[0].Open(context.Background(), shipPlan(t)).Exec()
	for !cx.Migrated() && tn.net.Step() {
	}
	if !cx.Migrated() {
		t.Fatal("plan never migrated")
	}
	// Cancel immediately — the planMsg and the cancelMsg now race
	// through the overlay; whichever order they arrive in, nothing may
	// keep running.
	cx.Cancel()
	tn.net.Settle()
	if n := totalPending(tn); n != 0 {
		t.Errorf("%d pending ops leaked", n)
	}
	if n := totalHosted(tn); n != 0 {
		t.Errorf("%d hosted plans live", n)
	}
}

// TestShippedQueryStillCompletesAfterCancelInfraAdded guards the happy
// path: an uncanceled shipped query must return exactly its results
// (the cancel machinery must not interfere with normal completion).
func TestShippedQueryStillCompletes(t *testing.T) {
	corpus := cancelCorpus()
	tn := buildNet(t, 32, 213, nil)
	tn.load(corpus)
	got, ex := tn.engines[0].RunPlanCtx(context.Background(), shipPlan(t))
	if !ex.Done() {
		t.Fatal("shipped query did not complete")
	}
	want := canon(referenceRun(t, `SELECT ?n,?a,?e WHERE {(?p,'name',?n) (?p,'age',?a) (?p,'email',?e)}`, corpus))
	if len(got) != len(want) {
		t.Fatalf("shipped query returned %d rows, want %d", len(got), len(want))
	}
	tn.net.Settle()
	if n := totalHosted(tn); n != 0 {
		t.Errorf("%d hosted plans linger after completion", n)
	}
}

// TestWaitCancelsWhenResultCannotArrive: when every peer but the
// origin dies after the plan migrated, no result can ever come home.
// Wait must still end with a completed query — canceled at its bound,
// with a non-negative elapsed time — not return with the Exec
// abandoned mid-flight.
func TestWaitCancelsWhenResultCannotArrive(t *testing.T) {
	tn := buildNet(t, 32, 211, nil)
	tn.load(cancelCorpus())
	ex := tn.engines[0].Open(context.Background(), shipPlan(t)).Exec()
	for !ex.Migrated() && tn.net.Step() {
	}
	if !ex.Migrated() {
		t.Fatal("plan never migrated")
	}
	for _, p := range tn.peers[1:] {
		tn.net.Kill(p.ID())
	}
	ex.Wait()
	if !ex.Done() {
		t.Fatal("Wait returned with the query still running")
	}
	if ex.Elapsed() < 0 {
		t.Errorf("elapsed %v < 0", ex.Elapsed())
	}
	if len(ex.Result()) != 0 {
		t.Errorf("canceled shipped query returned %d rows", len(ex.Result()))
	}
}
