package main

// In-process microbenchmarks of single layers (source µ). Each runs a
// fixed iteration count on the benchmark's own inputs, through the
// layer's public API only.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"unistore/internal/agg"
	"unistore/internal/keys"
	"unistore/internal/netx"
	"unistore/internal/optimizer"
	"unistore/internal/pgrid"
	"unistore/internal/physical"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/store/wal"
	"unistore/internal/triple"
	"unistore/internal/vql"
)

// measure runs fn n times and returns the mean time and heap
// allocations per call. Nothing else may run in the process meanwhile.
func measure(n int, fn func()) (nsPerCall, allocsPerCall float64) {
	fn() // first call pays lazy initialisation
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

const microPrefix = 200 // ops of client 0's stream the query-path benchmarks replay

// microQueryPath measures vql, optimizer and core on the workload's
// own query texts.
func microQueryPath(res *result, r *runner, o *oracle) error {
	st := newReadStream(r.pool, r.streamSeed(0))
	texts := make([]string, microPrefix)
	for i := range texts {
		texts[i] = r.pool.texts[st.next()]
	}
	const passes = 5
	i := 0
	ns, allocs := measure(passes*len(texts), func() {
		if _, err := vql.ParseQuery(texts[i%len(texts)]); err != nil {
			panic(err) // the oracle already parsed every pool text
		}
		i++
	})
	res.set("vql.parse_us", ns/1e3)
	res.set("vql.parse_allocs", allocs)

	parsed := make([]*vql.Query, len(texts))
	for i, t := range texts {
		q, err := vql.ParseQuery(t)
		if err != nil {
			return err
		}
		parsed[i] = q
	}
	opt := optimizer.New(o.c.Stats(), optimizer.DefaultOptions())
	i = 0
	ns, allocs = measure(passes*len(parsed), func() {
		plan, err := physical.CompileQuery(parsed[i%len(parsed)])
		if err != nil {
			panic(err)
		}
		opt.Optimize(plan)
		opt.EstimatePlan(plan)
		i++
	})
	res.set("optimizer.plan_us", ns/1e3)
	res.set("optimizer.plan_allocs", allocs)

	// The whole stack without codec or sockets: the same prefix on the
	// deterministic simnet cluster.
	i = 0
	ns, allocs = measure(2*len(texts), func() {
		if _, err := o.c.QueryFrom(0, texts[i%len(texts)]); err != nil {
			panic(err)
		}
		i++
	})
	res.set("core.nonet_us_per_op", ns/1e3)
	res.set("core.nonet_allocs_per_op", allocs)
	return nil
}

// microWire replays captured payloads through the wire codec.
func microWire(res *result, captured map[string]any) error {
	for _, kind := range wireKinds {
		payload, ok := captured[kind]
		if !ok {
			return fmt.Errorf("wire kind %s was never seen by the tracing codec", kind)
		}
		body, err := pgrid.EncodePayload(payload)
		if err != nil {
			return err
		}
		n := 2000
		if len(body) > 4096 {
			n = 300
		}
		ns, allocs := measure(n, func() {
			b, err := pgrid.EncodePayload(payload)
			if err != nil {
				panic(err)
			}
			if _, err := pgrid.DecodePayload(b); err != nil {
				panic(err)
			}
		})
		res.set("wire.roundtrip_us."+kind, ns/1e3)
		res.set("wire.roundtrip_allocs."+kind, allocs)
		res.set("wire.bytes."+kind, float64(len(body)))
		if w, ok := payload.(interface{ WireSize() int }); ok && w.WireSize() > 0 {
			res.set("wire.model_ratio."+kind, float64(len(body))/float64(w.WireSize()))
		}
	}
	return nil
}

// identityCodec carries []byte payloads untouched: netx alone.
type identityCodec struct{}

func (identityCodec) Encode(p any) ([]byte, error) { return p.([]byte), nil }
func (identityCodec) Decode(b []byte) (any, error) { return b, nil }

// echoNode answers every message (server) or signals its arrival
// (client).
type echoNode struct {
	tr   *netx.Transport
	id   simnet.NodeID
	echo bool
	got  chan struct{}
}

func (e *echoNode) HandleMessage(m simnet.Message) {
	if e.echo {
		e.tr.Send(e.id, m.From, m.Kind, m.Payload)
		return
	}
	e.got <- struct{}{}
}

func microNetx(res *result) error {
	frame := func(size int, n int) (float64, float64) {
		f := netx.Frame{From: 1, To: 2, Kind: pgrid.KindRoute, Body: make([]byte, size)}
		return measure(n, func() {
			buf, err := netx.AppendFrame(nil, f)
			if err != nil {
				panic(err)
			}
			if _, err := netx.ReadFrame(bytes.NewReader(buf), netx.DefaultMaxFrame); err != nil {
				panic(err)
			}
		})
	}
	ns, allocs := frame(64, 20000)
	res.set("netx.frame_ns.64", ns)
	res.set("netx.frame_allocs", allocs)
	ns, _ = frame(16<<10, 5000)
	res.set("netx.frame_ns.16k", ns)

	// Two transports on loopback, smallest message, identity codec.
	a, err := netx.New(netx.Config{Listen: "127.0.0.1:0", Seed: 1}, identityCodec{})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := netx.New(netx.Config{Listen: "127.0.0.1:0", Seeds: []string{a.Addr()}, Seed: 2}, identityCodec{})
	if err != nil {
		return err
	}
	defer b.Close()
	client := &echoNode{tr: a, got: make(chan struct{}, 1)}
	server := &echoNode{tr: b, echo: true}
	a.Reserve(0)
	b.Reserve(1)
	client.id = a.AddNode(client)
	server.id = b.AddNode(server)
	a.Start()
	b.Start()
	if !a.WaitRoutes(2, 5*time.Second) || !b.WaitRoutes(2, 5*time.Second) {
		return fmt.Errorf("netx echo: transports did not learn each other's routes")
	}
	msg := make([]byte, 16)
	const trips = 2000
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips+50; i++ {
		t0 := time.Now()
		a.Send(client.id, server.id, pgrid.KindRoute, msg)
		select {
		case <-client.got:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("netx echo: no reply")
		}
		if i >= 50 { // the first trips dial
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	res.set("netx.echo_rtt_us", median(rtts))
	return nil
}

// microStore measures one peer-sized store at the benchmark's entry
// count: every triple of the dataset under all three index kinds.
func microStore(res *result, ds *dataset) {
	s := store.New()
	for i, tr := range ds.triples {
		s.PutAll(tr, uint64(i+1))
	}
	v := uint64(len(ds.triples))
	i := 0
	ns, allocs := measure(5000, func() {
		i++
		s.PutEntry(triple.ByOID, triple.T(fmt.Sprintf("bench-%07d", i), "note", "x"), v+uint64(i))
	})
	res.set("store.put_ns", ns)
	res.set("store.put_allocs", allocs)

	lookups := make([]keys.Key, len(ds.triples))
	for i, tr := range ds.triples {
		lookups[i] = triple.IndexKey(tr, triple.ByOID)
	}
	i = 0
	ns, _ = measure(20000, func() {
		s.Lookup(triple.ByOID, lookups[i%len(lookups)])
		i++
	})
	res.set("store.lookup_ns", ns)

	rows := 0
	ns, _ = measure(50, func() {
		rows = 0
		s.Scan(triple.ByAV, triple.AVPrefixRange("name"), func(store.Entry) bool { rows++; return true })
	})
	if rows > 0 {
		res.set("store.scan_ns_per_row", ns/float64(rows))
	}
}

// microWAL measures log appends on the real file system under tmpDir.
func microWAL(res *result, tmpDir string) error {
	entry := func(i int) store.Entry {
		tr := triple.T(fmt.Sprintf("w-%07d", i), writeAttr, fmt.Sprintf("v%07d", i))
		return store.Entry{Kind: triple.ByOID, Key: triple.IndexKey(tr, triple.ByOID), Triple: tr, Version: uint64(i + 1)}
	}
	open := func(name string, policy wal.SyncPolicy) (*wal.DB, string, error) {
		dir := filepath.Join(tmpDir, "wal-"+name)
		trackDir(dir)
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
		db, err := wal.Open(dir, store.New(), wal.Options{Sync: policy, CompactAfter: -1})
		return db, dir, err
	}
	single := func(name string, policy wal.SyncPolicy, n int) error {
		db, dir, err := open(name, policy)
		if err != nil {
			return err
		}
		i := 0
		ns, _ := measure(n, func() {
			if err := db.LogApply(entry(i)); err != nil {
				panic(err)
			}
			i++
		})
		res.set("wal.append_us."+name, ns/1e3)
		err = db.Close()
		removeDir(dir)
		return err
	}
	if err := single("always", wal.SyncAlways, 200); err != nil {
		return err
	}
	if err := single("interval", wal.SyncInterval, 5000); err != nil {
		return err
	}
	if err := single("off", wal.SyncOff, 5000); err != nil {
		return err
	}

	// Two writers on one log: group commit lets them share fsyncs.
	db, dir, err := open("group", wal.SyncAlways)
	if err != nil {
		return err
	}
	const writers, each = 2, 150
	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each && errs[w] == nil; i++ {
				errs[w] = db.LogApply(entry(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	res.set("wal.group_append_us.always", float64(time.Since(start).Microseconds())/float64(writers*each))
	for _, e := range errs {
		if e != nil {
			err = e
		}
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	removeDir(dir)
	return err
}

// microAgg merges one partial state per distinct published_in value,
// the group-by the scan_agg workload runs.
func microAgg(res *result, ds *dataset) {
	spec := &agg.Spec{
		GroupBy: []string{"c"},
		Items:   []agg.Item{{Func: agg.Count, Out: "n"}},
		Pat:     [3]agg.Term{agg.VarTerm("u"), agg.LitTerm(triple.S("published_in")), agg.VarTerm("c")},
	}
	partial := agg.NewTable(spec)
	for _, tr := range ds.triples {
		partial.AddTriple(tr)
	}
	states := partial.States()
	if len(states) == 0 {
		return
	}
	ns, _ := measure(200, func() {
		t := agg.NewTable(spec)
		t.MergeStates(states)
		t.MergeStates(states) // a second partition's partials fold into existing groups
	})
	res.set("agg.merge_ns_per_group", ns/float64(2*len(states)))
	res.set("agg.state_bytes_per_group", float64(len(agg.EncodeStates(states)))/float64(len(states)))
}
