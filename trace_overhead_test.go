// Tracing-overhead guard: tracing piggybacks spans on messages the
// protocol sends anyway, so a traced run must send EXACTLY as many
// messages as an untraced one, and the extra bytes (trace contexts on
// requests, span riders on responses) must stay a bounded fraction of
// the untraced payload. The benchmark pair measures the wall-clock
// cost of tracing on the warm index-join path.
package unistore_test

import (
	"context"
	"testing"

	"unistore"
	"unistore/internal/benchscen"
	"unistore/internal/keys"
	"unistore/internal/triple"
	"unistore/internal/workload"
)

// tracedTopK mirrors benchscen.TopK with tracing switchable: the same
// deterministic 64-peer ranked top-5 scenario both overhead numbers
// come from.
func tracedTopK(tracing bool) *unistore.Cluster {
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 12, Tracing: tracing,
	})
	ds := workload.Generate(workload.Options{Seed: 13, Persons: 300})
	c.BulkInsert(ds.Triples...)
	c.Net().Settle()
	return c
}

// tracedIndexJoin mirrors benchscen.IndexJoin() with tracing
// switchable — the warm-cache DHT index-join path.
func tracedIndexJoin(tracing bool) *unistore.Cluster {
	ds := workload.Generate(workload.Options{Seed: 9, Persons: 60})
	var samples []keys.Key
	for _, tr := range ds.Triples {
		for _, kind := range triple.AllIndexKinds {
			samples = append(samples, triple.IndexKey(tr, kind))
		}
	}
	c := unistore.New(unistore.Config{
		Peers: 64, Seed: 8, AdaptiveSamples: samples, Tracing: tracing,
	})
	c.BulkInsert(ds.Triples...)
	c.Net().Settle()
	return c
}

// traceOverheadFraction bounds the traced run's extra bytes relative
// to the untraced payload. Measured: ~31% on the ranked top-5 (riders
// are large relative to this scenario's small pages); the guard fails
// if piggyback encoding bloats past 45%.
const traceOverheadFraction = 0.45

func TestTracingZeroExtraMessagesBoundedBytes(t *testing.T) {
	type cost struct{ msgs, bytes int }
	run := func(tracing bool) cost {
		c := tracedTopK(tracing)
		before := c.Net().Stats()
		res, err := c.QueryFrom(0, benchscen.TopKQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bindings) != 5 {
			t.Fatalf("top-5 returned %d rows", len(res.Bindings))
		}
		if tracing && res.Trace == nil {
			t.Fatal("tracing run returned no trace")
		}
		c.Net().Settle()
		after := c.Net().Stats()
		return cost{after.MessagesSent - before.MessagesSent, after.BytesSent - before.BytesSent}
	}
	plain := run(false)
	traced := run(true)
	if traced.msgs != plain.msgs {
		t.Errorf("tracing changed the message count: %d untraced, %d traced — piggyback only, never extra messages",
			plain.msgs, traced.msgs)
	}
	extra := traced.bytes - plain.bytes
	if extra <= 0 {
		t.Errorf("traced run added no bytes (%d vs %d) — riders are not traveling", plain.bytes, traced.bytes)
	}
	if float64(extra) > traceOverheadFraction*float64(plain.bytes) {
		t.Errorf("trace piggyback added %d bytes on a %d-byte query (%.0f%%), bound %.0f%%",
			extra, plain.bytes, 100*float64(extra)/float64(plain.bytes), 100*traceOverheadFraction)
	}
}

func benchIndexJoinTracing(b *testing.B, tracing bool) {
	c := tracedIndexJoin(tracing)
	plan, err := benchscen.IndexJoinPlan()
	if err != nil {
		b.Fatal(err)
	}
	c.Engine(0).RunPlanCtx(context.Background(), plan) // warm the route cache
	c.Net().Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, _ := c.Engine(0).RunPlanCtx(context.Background(), plan)
		if len(bs) == 0 {
			b.Fatal("join returned nothing")
		}
	}
}

func BenchmarkIndexJoinTracingOff(b *testing.B) { benchIndexJoinTracing(b, false) }
func BenchmarkIndexJoinTracingOn(b *testing.B)  { benchIndexJoinTracing(b, true) }
