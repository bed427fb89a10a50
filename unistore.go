// Package unistore is a Go reproduction of "UniStore: Querying a
// DHT-based Universal Storage" (Karnstedt, Sattler, Richtarsky, Müller,
// Hauswirth, Schmidt, John — ICDE 2007 demonstration, technical report
// LSIR-REPORT-2006-011).
//
// UniStore stores logical tuples vertically as (OID, attribute, value)
// triples — the layout of RDF — and indexes every triple three ways
// (by OID, by attribute#value, and by value) into a P-Grid structured
// overlay: a virtual binary trie with an order-preserving hash, prefix
// routing in logarithmic hops, skew-adaptive load balancing, replica
// groups with loosely consistent updates, and native range queries.
// Queries are written in VQL, a SPARQL-derived language with FILTER
// predicates (including edit-distance similarity), ORDER BY, LIMIT,
// TOP-N and SKYLINE OF clauses; they compile through a logical algebra
// into mutant query plans that either pull data to the query peer or
// migrate themselves through the overlay, re-optimized by a cost model
// at every hosting peer.
//
// The storage stack runs over either of two transports. New hosts every
// peer on a discrete-event simulator standing in for the paper's
// PlanetLab testbed, so clusters of hundreds of peers run in-process,
// repeatably, in milliseconds of wall time; the simulator runs
// deterministically by default, and Config.Concurrent switches it to
// goroutine-driven delivery, where peers handle messages in parallel
// and queries and writes can be issued from many goroutines at once.
// The same Cluster type also runs as a multi-process daemon over real
// TCP (cmd/unistore -listen), hosting one process's share of the peers
// — only the transport differs. Every write (Insert, BulkInsert,
// Update, Delete, AddMapping) is an acked overlay write on either
// transport: an index entry lost in transit is retried until a
// responsible peer acks it.
//
// # Quickstart
//
//	c := unistore.New(unistore.Config{Peers: 64, EnableQGram: true})
//	c.Insert(unistore.NewTuple("a12").
//		Set("title", unistore.S("Similarity Queries")).
//		Set("confname", unistore.S("ICDE 2006")).
//		Set("year", unistore.N(2006)).Triples()...)
//	res, err := c.Query(`SELECT ?t WHERE {(?p,'title',?t) (?p,'year',?y) FILTER ?y >= 2006}`)
//
// # Bulk loading
//
// Datasets load fastest through BulkInsert, which spreads the batch
// across the live source peers and puts every write in flight before
// awaiting the first ack, so the batch's DHT round trips overlap
// instead of serializing per call:
//
//	c := unistore.New(unistore.Config{Peers: 64, Concurrent: true})
//	defer c.Close()
//	c.BulkInsert(dataset...) // every ack awaited, then one quiescence
//
// # Streaming queries
//
// Execution is a streaming operator pipeline: rows flow between
// operators as overlay responses arrive, LIMIT and ranked top-k
// queries terminate remote probes as soon as the bound proves no
// better row can arrive, and QueryStream exposes results as a pull
// cursor before the query completes:
//
//	st, _ := c.QueryStream(ctx, `SELECT ?n WHERE {(?p,'name',?n)} ORDER BY ?n LIMIT 5`)
//	defer st.Close()
//	for row, ok := st.Next(); ok; row, ok = st.Next() {
//		fmt.Println(row["n"])
//	}
//
// Query runs the same stream to its end and returns st.Result(). Both
// take options: From(i) picks the origin peer, WithMappings() rewrites
// the query across published schema mappings. QueryStream's context
// cancels the query: the pipeline stops and releases its pending
// overlay operations instead of letting them run to waste — including
// plans that migrated to other peers, which are chased down and
// stopped. Every query, streamed or not, ends in one finish step that
// builds its Result and, when Config.Tracing is on, records its trace.
//
// # Message-layer fast path
//
// Peers learn the partition→node map from the responses they observe,
// so repeat probes reach the responsible peer in one hop instead of
// O(log n); probes of an index join that map to the same cached peer
// coalesce into one batched request/response pair; and with
// Config.PageSize set, range scans are answered in bounded pages that
// the query pulls only while its pipeline still needs rows. All three
// are invisible to results (stale cache entries repair themselves
// under churn) and priced by the cost model, so limit-aware plan
// choices stay honest.
//
// # Replica-aware reads
//
// With Config.Replicas > 1 every remote read targets the partition's
// replica SET: the routing cache learns whole replica groups from
// responses, probes pick a replica by load-aware power-of-two-choices
// and transparently hedge to a sibling after 100 ms of simulated
// silence, range scans re-shower partitions that never finished
// answering, and paged scans resume on a sibling replica when their
// server dies between pages — so killing peers mid-workload
// (Cluster.Kill) leaves query results exact.
// Config.AntiEntropyInterval turns on digest-based replica
// reconciliation that ships version summaries instead of full state.
//
// See the examples directory for complete programs, README.md for the
// module layout, docs/architecture.md for the query lifecycle and the
// streaming pipeline, and docs/vql.md for the query language.
package unistore

import (
	"unistore/internal/core"
	"unistore/internal/optimizer"
	"unistore/internal/physical"
	"unistore/internal/schema"
	"unistore/internal/triple"
)

// Config parameterizes a cluster. The zero value gives a 16-peer
// overlay with constant 1ms links and the cost-based optimizer enabled.
type Config = core.Config

// Cluster is a running universal storage host: P-Grid peers on one
// transport, each with a triple store and a query engine. New builds
// it over the simulator.
type Cluster = core.Cluster

// Result is a completed query: bindings plus execution metrics
// (simulated latency, time-to-first-result, messages, routing hops).
type Result = core.Result

// Stream is an open streaming query: Next yields rows as the
// distributed pipeline produces them, before the query has finished;
// Close cancels the remainder; Result is the finished query's Result
// once the stream has ended. Obtained from Cluster.QueryStream.
type Stream = core.Stream

// QueryOption adjusts one query (Cluster.Query, Cluster.QueryStream).
type QueryOption = core.QueryOption

// From originates a query at hosted peer peerIdx instead of a random
// one.
func From(peerIdx int) QueryOption { return core.From(peerIdx) }

// WithMappings rewrites a query across the schema mappings published
// with Cluster.AddMapping and unites the results of every rewriting.
func WithMappings() QueryOption { return core.WithMappings() }

// LatencyProfile selects the simulated network's delay model.
type LatencyProfile = core.LatencyProfile

// Latency profiles for Config.Latency.
const (
	LatencyConstant   = core.LatencyConstant
	LatencyLAN        = core.LatencyLAN
	LatencyWAN        = core.LatencyWAN
	LatencyPlanetLab  = core.LatencyPlanetLab
	LatencyTwoCluster = core.LatencyTwoCluster
)

// Triple is one (OID, attribute, value) fact — the unit of storage.
type Triple = triple.Triple

// Tuple is a logical tuple; storage decomposes it into triples.
type Tuple = triple.Tuple

// Value is a typed attribute value (string or number).
type Value = triple.Value

// Mapping is an attribute correspondence used to bridge heterogeneous
// schemas.
type Mapping = schema.Mapping

// OptimizerOptions tunes plan selection (Config.Optimizer).
type OptimizerOptions = optimizer.Options

// Optimizer modes: pull data to the query peer, migrate the plan, or
// decide per step by estimated cost.
const (
	ModeAuto  = optimizer.ModeAuto
	ModeFetch = optimizer.ModeFetch
	ModeShip  = optimizer.ModeShip
)

// Access strategies (OptimizerOptions.ForceStrategy) — the physical
// operator alternatives the paper's demo toggles.
const (
	StratAuto      = physical.StratAuto
	StratOIDLookup = physical.StratOIDLookup
	StratAVLookup  = physical.StratAVLookup
	StratAVRange   = physical.StratAVRange
	StratValLookup = physical.StratValLookup
	StratBroadcast = physical.StratBroadcast
	StratQGram     = physical.StratQGram
)

// New builds a cluster: the overlay trie, routing tables, replica
// groups and per-peer query engines.
func New(cfg Config) *Cluster { return core.NewCluster(cfg) }

// NewTuple creates an empty logical tuple with the given OID.
func NewTuple(oid string) *Tuple { return triple.NewTuple(oid) }

// T constructs a triple with a string value.
func T(oid, attr, val string) Triple { return triple.T(oid, attr, val) }

// TN constructs a triple with a numeric value.
func TN(oid, attr string, val float64) Triple { return triple.TN(oid, attr, val) }

// S constructs a string value.
func S(s string) Value { return triple.S(s) }

// N constructs a numeric value.
func N(f float64) Value { return triple.N(f) }

// GenerateOID returns a fresh system-generated OID with the given
// prefix, grouping the triples of one logical tuple.
func GenerateOID(prefix string) string { return triple.GenerateOID(prefix) }
