package trace

import (
	"strings"
	"testing"
)

func TestCtxActivationAndWireSize(t *testing.T) {
	var zero Ctx
	if zero.Active() || zero.WireSize() != 0 {
		t.Fatalf("zero ctx must be inactive and free on the wire")
	}
	c := Ctx{TraceID: 7, Parent: 3, Depth: 1, Flags: FlagRetry}
	if !c.Active() || c.WireSize() == 0 {
		t.Fatalf("active ctx must cost wire bytes")
	}
	child := c.Child(99)
	if child.Parent != 99 || child.Depth != 2 || child.TraceID != 7 {
		t.Fatalf("child ctx wrong: %+v", child)
	}
	if child.Flags != 0 {
		t.Fatalf("flags must not inherit: a retry's children are ordinary spans")
	}
}

func TestWireSpanExpansion(t *testing.T) {
	ws := &WireSpan{
		ID: 5, Parent: 2, Op: OpRange, Flags: FlagHedge, Depth: 3,
		Peer: 11, Path: "0110", MsgsIn: 4, BytesIn: 400, Stalls: 1, Rows: 9,
		Enq: 10, Srv: 20, Rep: 30,
	}
	sp := ws.Span(77, 1, 123)
	if sp.TraceID != 77 || sp.Kind != "range" || sp.MsgsIn != 4 || sp.MsgsOut != 1 ||
		sp.BytesIn != 400 || sp.BytesOut != 123 || sp.Rows != 9 || sp.Stalls != 1 {
		t.Fatalf("expanded span wrong: %+v", sp)
	}
	if ws.WireSize() <= 0 {
		t.Fatalf("rider must report a positive wire size")
	}
	var nilWS *WireSpan
	if nilWS.WireSize() != 0 {
		t.Fatalf("nil rider must be free")
	}
}

func TestAssembleDedupsAndTotals(t *testing.T) {
	spans := []Span{
		{ID: 1, TraceID: 9, Kind: "query", Depth: 0, MsgsOut: 1, BytesOut: 10},
		{ID: 2, Parent: 1, TraceID: 9, Kind: "range", Depth: 1, MsgsIn: 3, BytesIn: 300},
		{ID: 2, Parent: 1, TraceID: 9, Kind: "range", Depth: 1, MsgsIn: 999}, // duplicate rider: first wins
		{ID: 3, Parent: 2, TraceID: 9, Kind: "page", Depth: 2, MsgsIn: 1, MsgsOut: 1, BytesIn: 50, BytesOut: 60},
	}
	qt := Assemble(9, 1, spans)
	if len(qt.Spans) != 3 {
		t.Fatalf("dedup failed: %d spans", len(qt.Spans))
	}
	msgs, bytes := qt.Totals()
	if msgs != 1+3+2 || bytes != 10+300+110 {
		t.Fatalf("totals = %d msgs / %d bytes", msgs, bytes)
	}
	if orphans := qt.Orphans(); len(orphans) != 0 {
		t.Fatalf("unexpected orphans: %v", orphans)
	}
}

func TestOrphanDetection(t *testing.T) {
	qt := Assemble(9, 1, []Span{
		{ID: 1, TraceID: 9, Kind: "query"},
		{ID: 4, Parent: 77, TraceID: 9, Kind: "lookup", Depth: 2}, // parent never recorded
	})
	orphans := qt.Orphans()
	if len(orphans) != 1 || orphans[0].ID != 4 {
		t.Fatalf("orphans = %v", orphans)
	}
}

// TestCanonicalIgnoresIdentityAndTiming pins the structural-comparison
// contract: two traces of the same work differing only in span ids,
// peer ids and timestamps canonicalize identically, while a structural
// difference (an extra hop) shows.
func TestCanonicalIgnoresIdentityAndTiming(t *testing.T) {
	mk := func(base uint64, peer int64, ts int64) *QueryTrace {
		return Assemble(base, base+1, []Span{
			{ID: base + 1, TraceID: base, Kind: "query", Peer: peer, Enq: ts, Rep: ts + 5},
			{ID: base + 2, Parent: base + 1, TraceID: base, Kind: "stage", Stage: "s0:av-range", Depth: 1, Peer: peer},
			{ID: base + 3, Parent: base + 2, TraceID: base, Kind: "range", Path: "01", Depth: 2, Peer: peer + 7, Enq: ts + 1},
		})
	}
	a, b := mk(100, 1, 1000), mk(200, 42, 99999)
	if a.Canonical(nil) != b.Canonical(nil) {
		t.Fatalf("canonical forms differ:\n%s\n--\n%s", a.Canonical(nil), b.Canonical(nil))
	}
	c := mk(300, 1, 0)
	c.Spans = append(c.Spans, Span{ID: 304, Parent: 303, TraceID: 300, Kind: "page", Path: "01", Depth: 3})
	if a.Canonical(nil) == c.Canonical(nil) {
		t.Fatalf("extra span must change the canonical form")
	}
	// Filtering a subtree drops it and its children.
	keep := func(s Span) bool { return s.Kind != "range" }
	if strings.Contains(c.Canonical(keep), "page") {
		t.Fatalf("dropping a span must drop its subtree:\n%s", c.Canonical(keep))
	}
}

func TestTraceStringMarksFlagsAndCosts(t *testing.T) {
	qt := Assemble(9, 1, []Span{
		{ID: 1, TraceID: 9, Kind: "query", Rows: 3},
		{ID: 2, Parent: 1, TraceID: 9, Kind: "multilookup", Depth: 1, Flags: FlagHedge, MsgsIn: 2, BytesIn: 128, Stalls: 1},
	})
	out := qt.String()
	for _, frag := range []string{"[hedge]", "msgs=2/0", "bytes=128/0", "rows=3", "stalls=1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
}

func TestTraceLogNewestFirst(t *testing.T) {
	l := NewTraceLog(2)
	l.Add(nil) // ignored
	l.Add(&QueryTrace{TraceID: 1})
	l.Add(&QueryTrace{TraceID: 2})
	l.Add(&QueryTrace{TraceID: 3})
	got := l.Recent()
	if len(got) != 2 || got[0].TraceID != 3 || got[1].TraceID != 2 {
		t.Fatalf("recent = %v", got)
	}
}
