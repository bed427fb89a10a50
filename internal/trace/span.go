package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span flags: how a span came to exist. A retry span replaces work
// toward a peer that stalled or died; a hedge span races a slow one.
const (
	FlagRetry uint8 = 1 << iota
	FlagHedge
)

// Op codes name the overlay operation a span measures. They travel on
// the wire (one byte) instead of the kind string.
const (
	OpLookup uint8 = iota + 1
	OpMultiLookup
	OpRange
	OpPage
	OpInsert
	OpPlan
)

// OpName expands a wire op code to the span-kind string.
func OpName(op uint8) string {
	switch op {
	case OpLookup:
		return "lookup"
	case OpMultiLookup:
		return "multilookup"
	case OpRange:
		return "range"
	case OpPage:
		return "page"
	case OpInsert:
		return "insert"
	case OpPlan:
		return "plan"
	}
	return fmt.Sprintf("op%d", op)
}

// Ctx is the trace context propagated on every overlay request that
// carries a query id: which trace the work belongs to, which span
// caused it, and how deep in the tree it sits. The zero Ctx means
// tracing is off — no span is recorded and no rider is attached.
type Ctx struct {
	TraceID uint64
	Parent  uint64
	Depth   uint8
	Flags   uint8
}

// Active reports whether this context belongs to a live trace.
func (c Ctx) Active() bool { return c.TraceID != 0 }

// Child derives the context for work caused by span `parent` one level
// deeper. Flags do not inherit: a retry's children are ordinary spans.
func (c Ctx) Child(parent uint64) Ctx {
	return Ctx{TraceID: c.TraceID, Parent: parent, Depth: c.Depth + 1}
}

// WireSize is the estimated encoded size of the context: two ids, a
// depth and a flag byte. Zero when inactive — untraced messages pay
// nothing.
func (c Ctx) WireSize() int {
	if c.TraceID == 0 {
		return 0
	}
	return 18
}

// Span is one completed unit of traced work: a peer served one
// request (or the coordinator ran one synthetic stage). Timestamps are
// transport-clock nanoseconds (simulated time on simnet, wall time on
// TCP); structural comparisons ignore them.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	TraceID uint64 `json:"trace"`
	Kind    string `json:"kind"`
	Peer    int64  `json:"peer"`
	Path    string `json:"path,omitempty"`
	Stage   string `json:"stage,omitempty"`
	Flags   uint8  `json:"flags,omitempty"`
	Depth   uint8  `json:"depth"`
	// Enq/Srv/Rep: request delivery, serve start, reply send.
	Enq int64 `json:"enq"`
	Srv int64 `json:"srv"`
	Rep int64 `json:"rep"`
	// MsgsIn/BytesIn: messages and bytes spent delivering the request
	// to this span's peer (routing hops included). MsgsOut/BytesOut:
	// its reply. Every overlay message belongs to exactly one span
	// field, so totals reconcile with the transport's counters.
	MsgsIn   int `json:"msgsIn"`
	MsgsOut  int `json:"msgsOut"`
	BytesIn  int `json:"bytesIn"`
	BytesOut int `json:"bytesOut"`
	// Stalls counts credit-window stalls charged to this span.
	Stalls int `json:"stalls,omitempty"`
	// Rows is the number of entries/rows this span produced. RowsIn is
	// the upstream rows a pipeline-stage span consumed (overlay spans
	// leave it zero).
	Rows   int `json:"rows,omitempty"`
	RowsIn int `json:"rowsIn,omitempty"`
}

// WireSpan is the compact rider a serving peer piggybacks on its
// response: everything the coordinator cannot reconstruct locally.
// MsgsOut/BytesOut are stamped by the receiver from the response
// message itself, so they never travel.
type WireSpan struct {
	ID      uint64
	Parent  uint64
	Op      uint8
	Flags   uint8
	Depth   uint8
	Peer    int64
	Path    string
	MsgsIn  int32
	BytesIn int32
	Stalls  int32
	Rows    int32
	Enq     int64
	Srv     int64
	Rep     int64
}

// WireSize estimates the rider's encoded size (varint counters and
// timestamps; the path packs to a bit per character).
func (w *WireSpan) WireSize() int {
	if w == nil {
		return 0
	}
	return 48 + len(w.Path)/8
}

// Span expands the rider into a full span; the caller stamps the
// response's own cost (msgsOut is 1 for a piggybacked rider).
func (w *WireSpan) Span(traceID uint64, msgsOut, bytesOut int) Span {
	return Span{
		ID: w.ID, Parent: w.Parent, TraceID: traceID,
		Kind: OpName(w.Op), Peer: w.Peer, Path: w.Path,
		Flags: w.Flags, Depth: w.Depth,
		Enq: w.Enq, Srv: w.Srv, Rep: w.Rep,
		MsgsIn: int(w.MsgsIn), MsgsOut: msgsOut,
		BytesIn: int(w.BytesIn), BytesOut: bytesOut,
		Stalls: int(w.Stalls), Rows: int(w.Rows),
	}
}

// QueryTrace is the coordinator-assembled trace of one query: a flat
// span list linked by parent ids into a tree rooted at Root.
type QueryTrace struct {
	TraceID uint64 `json:"trace"`
	Root    uint64 `json:"root"`
	Spans   []Span `json:"spans"`
}

// Assemble sorts and dedups spans (first occurrence wins) into a
// QueryTrace. The deterministic order — depth, then kind, path, id —
// makes equal traces byte-equal when rendered.
func Assemble(traceID, root uint64, spans []Span) *QueryTrace {
	seen := make(map[uint64]bool, len(spans))
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.ID != 0 && seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.ID < b.ID
	})
	return &QueryTrace{TraceID: traceID, Root: root, Spans: out}
}

// Totals sums the per-span message and byte accounting. On a quiet
// deterministic network the result reconciles exactly with the
// transport's own sent counters.
func (t *QueryTrace) Totals() (msgs, bytes int) {
	for _, s := range t.Spans {
		msgs += s.MsgsIn + s.MsgsOut
		bytes += s.BytesIn + s.BytesOut
	}
	return msgs, bytes
}

// Orphans returns spans whose parent id is neither zero, the root, nor
// present in the trace — broken links a propagation bug would leave.
func (t *QueryTrace) Orphans() []Span {
	ids := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		ids[s.ID] = true
	}
	var out []Span
	for _, s := range t.Spans {
		if s.Parent != 0 && s.Parent != t.Root && !ids[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}

// node is one tree position during rendering/canonicalization.
type node struct {
	span     Span
	children []*node
}

// tree links spans into parent→children form. Spans with a missing
// parent hang off the root so nothing is silently dropped.
func (t *QueryTrace) tree() *node {
	byID := make(map[uint64]*node, len(t.Spans)+1)
	root := &node{span: Span{ID: t.Root, Kind: "query"}}
	byID[t.Root] = root
	for i := range t.Spans {
		n := &node{span: t.Spans[i]}
		if t.Spans[i].ID == t.Root {
			root.span = t.Spans[i]
			continue
		}
		byID[t.Spans[i].ID] = n
	}
	for _, n := range byID {
		if n == root {
			continue
		}
		p := byID[n.span.Parent]
		if p == nil || p == n {
			p = root
		}
		p.children = append(p.children, n)
	}
	var order func(*node)
	order = func(n *node) {
		sort.Slice(n.children, func(i, j int) bool {
			a, b := n.children[i].span, n.children[j].span
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			if a.Path != b.Path {
				return a.Path < b.Path
			}
			if a.Stage != b.Stage {
				return a.Stage < b.Stage
			}
			return a.ID < b.ID
		})
		for _, c := range n.children {
			order(c)
		}
	}
	order(root)
	return root
}

// label is the structural identity of a span: what it did and where in
// the key space — never who (peer ids differ across replica choices)
// and never when (timings differ across transports).
func (s Span) label() string {
	l := s.Kind
	if s.Stage != "" {
		l += ":" + s.Stage
	}
	if s.Path != "" {
		l += "@" + s.Path
	}
	return l
}

// Canonical renders the trace's structure as sorted root-to-span label
// chains, one per span. Two runs of the same deterministic scenario —
// simulated or over TCP — produce byte-equal canonical forms, which is
// how the cross-transport identity test compares them. keep filters
// spans (nil keeps all); dropping a span drops its subtree.
func (t *QueryTrace) Canonical(keep func(Span) bool) string {
	var lines []string
	var walk func(n *node, prefix string)
	walk = func(n *node, prefix string) {
		line := prefix + n.span.label()
		lines = append(lines, line)
		for _, c := range n.children {
			if keep != nil && !keep(c.span) {
				continue
			}
			walk(c, line+" > ")
		}
	}
	walk(t.tree(), "")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// String renders the trace as an indented tree with per-span cost —
// the slow-query log's payload.
func (t *QueryTrace) String() string {
	var sb strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s := n.span
		fmt.Fprintf(&sb, "%s%s peer=%d msgs=%d/%d bytes=%d/%d",
			strings.Repeat("  ", depth), s.label(), s.Peer,
			s.MsgsIn, s.MsgsOut, s.BytesIn, s.BytesOut)
		if s.Rows > 0 {
			fmt.Fprintf(&sb, " rows=%d", s.Rows)
		}
		if s.Stalls > 0 {
			fmt.Fprintf(&sb, " stalls=%d", s.Stalls)
		}
		if d := s.Rep - s.Enq; d > 0 {
			fmt.Fprintf(&sb, " t=%v", time.Duration(d).Round(time.Microsecond))
		}
		if s.Flags&FlagHedge != 0 {
			sb.WriteString(" [hedge]")
		}
		if s.Flags&FlagRetry != 0 {
			sb.WriteString(" [retry]")
		}
		sb.WriteString("\n")
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.tree(), 0)
	return sb.String()
}

// TraceLog is the daemon's bounded buffer of recently completed query
// traces, served by /trace/recent.
type TraceLog struct {
	mu   sync.Mutex
	buf  []*QueryTrace
	next int
	full bool
}

// NewTraceLog returns a log holding the most recent `capacity` traces.
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = 32
	}
	return &TraceLog{buf: make([]*QueryTrace, capacity)}
}

// Add records one completed trace.
func (l *TraceLog) Add(t *QueryTrace) {
	if t == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = t
	l.next = (l.next + 1) % len(l.buf)
	if l.next == 0 {
		l.full = true
	}
	l.mu.Unlock()
}

// Recent returns buffered traces, newest first.
func (l *TraceLog) Recent() []*QueryTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*QueryTrace
	for i := 1; i <= len(l.buf); i++ {
		t := l.buf[(l.next-i+len(l.buf))%len(l.buf)]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}
