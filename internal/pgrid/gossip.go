package pgrid

import (
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strconv"
	"time"

	"unistore/internal/keys"
	"unistore/internal/simnet"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// This file implements replica maintenance: eager push of fresh writes
// to the replica group, and periodic DIGEST-BASED anti-entropy. The
// combination yields the "update functionality with lose consistency
// guarantees" (Datta, Hauswirth, Aberer, ICDCS 2003) the paper relies
// on: updates reach available replicas quickly, unavailable replicas
// converge when they return.
//
// A digest round is the one way a replica receives state: the periodic
// timer, a join (fresh or restarted) and a replica pair formed by
// exchange all open one (openDigestRound). A round opens with a digest
// — per-bucket (index kind × key prefix) version summaries, a few dozen
// bytes per bucket — and each side pulls only the buckets whose
// summaries differ, delivered in pages of at most Config.PageSize
// entries (the same bound the range-scan pager enforces) and paced by
// the puller's receive window. Identical replicas exchange two digests
// and nothing else; an empty joiner pulls every bucket.

func kindOf(i int) triple.IndexKind { return triple.IndexKind(i) }

// partitionRange is the key range a peer with the given path covers.
func partitionRange(path keys.Key) keys.Range { return keys.PrefixRange(path) }

// pushToReplicas eagerly propagates fresh entries to the replica
// group: one deduplicated gossipMsg per replica. The peer the entries
// arrived from (a replica forwarding an insert, a gossiping sibling)
// is skipped — it provably holds them already — and superseded
// duplicates within the batch are dropped; both are counted as
// suppressed sends.
func (p *Peer) pushToReplicas(entries []store.Entry, from simnet.NodeID) {
	p.mu.RLock()
	replicas := append([]Ref(nil), p.replicas...)
	p.mu.RUnlock()
	if len(replicas) == 0 {
		return
	}
	batch := dedupeEntries(entries, &p.stats)
	seen := make(map[simnet.NodeID]bool, len(replicas))
	for _, r := range replicas {
		if r.ID == from || r.ID == p.id || seen[r.ID] {
			p.stats.gossipSuppressed.Add(int64(len(batch)))
			continue
		}
		seen[r.ID] = true
		p.gossipTo(r.ID, batch)
	}
}

// gossipTo issues one eager push, credit-gated like every bulk stream:
// the batch charges the replica's advertised window under a fresh qid
// and the replica's gossipAckMsg releases the credit (piggybacking a
// fresh window). With the window full — or older entries already
// waiting — the batch folds into the replica's pending buffer instead:
// one entry per fact, latest version wins, so a slow replica costs at
// most its partition's worth of buffered state and never an unbounded
// queue. Freed credit flushes the buffer in window-sized batches
// (flushGossip).
func (p *Peer) gossipTo(to simnet.NodeID, batch []store.Entry) {
	p.gossipMu.Lock()
	if p.gossipPend[to] != nil {
		// Entries are already parked toward this replica; join them
		// rather than overtake them.
		p.mergeGossipLocked(to, batch)
		p.gossipMu.Unlock()
		p.stats.flowStalls.Add(1)
		p.flushGossip(to)
		return
	}
	p.gossipMu.Unlock()
	if !p.tryGossipSend(to, batch) {
		p.gossipMu.Lock()
		p.mergeGossipLocked(to, batch)
		p.gossipMu.Unlock()
		p.stats.flowStalls.Add(1)
	}
}

// tryGossipSend charges and sends one gossip batch if the replica's
// window admits it now.
func (p *Peer) tryGossipSend(to simnet.NodeID, batch []store.Entry) bool {
	qid := p.nextQID()
	msg := gossipMsg{Entries: batch, AckID: qid}
	p.stats.flowBulkSends.Add(1)
	return p.flow.trySubmit(to, flowKey{qid: qid}, msg.WireSize(),
		func() { p.net.Send(p.id, to, KindGossip, msg) })
}

// gossipBuf is the pending gossip toward one replica: the winning
// entry per fact, and the facts in the order they first parked. Flushes
// drain from the front, so batches leave oldest-first and identical on
// every run. A buffer exists only while it holds entries.
type gossipBuf struct {
	latest map[factKey]store.Entry
	order  []factKey
}

// mergeGossipLocked folds a batch into the pending buffer toward one
// replica, keeping only the winning entry per fact under the store's
// own LWW rule; a fact already parked keeps its place in line, and new
// facts join at the back (their count is returned). Using
// store.Entry.Supersedes (not just the version) matters: multi-valued
// attributes can collide on (kind, OID, attr) at equal versions, and
// the buffer must drop the same loser every store would. Superseded
// entries are counted as suppressed.
func (p *Peer) mergeGossipLocked(to simnet.NodeID, batch []store.Entry) (added int) {
	b := p.gossipPend[to]
	if b == nil {
		b = &gossipBuf{latest: make(map[factKey]store.Entry)}
		p.gossipPend[to] = b
	}
	for _, e := range batch {
		fk := factKeyOf(e)
		if old, ok := b.latest[fk]; ok {
			p.stats.gossipSuppressed.Add(1)
			if !e.Supersedes(old) {
				continue
			}
		} else {
			b.order = append(b.order, fk)
			added++
		}
		b.latest[fk] = e
	}
	return added
}

// flushGossip drains the pending buffer toward one replica for as long
// as its window keeps admitting batches. Each batch takes the oldest
// parked entries up to the replica's advertised byte window — the
// "effective page" of the gossip stream — so a shrunken window trickles
// small messages instead of one huge flush.
func (p *Peer) flushGossip(to simnet.NodeID) {
	for {
		budget := p.flow.windowBytesOf(to)
		if budget <= 0 {
			budget = DefaultFlowWindowBytes
		}
		p.gossipMu.Lock()
		b := p.gossipPend[to]
		if b == nil {
			p.gossipMu.Unlock()
			return
		}
		var batch []store.Entry
		used := 16 // gossipMsg framing
		for _, fk := range b.order {
			e := b.latest[fk]
			sz := e.WireSize()
			if len(batch) > 0 && used+sz > budget {
				break
			}
			batch = append(batch, e)
			used += sz
			delete(b.latest, fk)
		}
		if b.order = b.order[len(batch):]; len(b.order) == 0 {
			delete(p.gossipPend, to)
		}
		p.gossipMu.Unlock()
		if !p.tryGossipSend(to, batch) {
			// Credit ran out again: the batch goes back to the front of
			// the line (a fresher entry merged meanwhile keeps its place).
			p.gossipMu.Lock()
			added := p.mergeGossipLocked(to, batch)
			b := p.gossipPend[to]
			n := len(b.order) - added
			b.order = slices.Concat(b.order[n:], b.order[:n])
			p.gossipMu.Unlock()
			return
		}
	}
}

// flushGossipPending gives every replica with parked gossip a flush
// chance, in address order — called wherever credit may have freed, so
// a pending buffer can never outlive the pressure that parked it.
func (p *Peer) flushGossipPending() {
	p.gossipMu.Lock()
	if len(p.gossipPend) == 0 {
		p.gossipMu.Unlock()
		return
	}
	ids := slices.Sorted(maps.Keys(p.gossipPend))
	p.gossipMu.Unlock()
	for _, id := range ids {
		p.flushGossip(id)
	}
}

// factKey is the gossip layer's fact identity: one versioned fact per
// index kind. Batch dedup and the pending buffer must agree on it, so
// both go through factKeyOf.
type factKey struct {
	kind triple.IndexKind
	oid  string
	attr string
}

func factKeyOf(e store.Entry) factKey {
	return factKey{e.Kind, e.Triple.OID, e.Triple.Attr}
}

// dedupeEntries drops batch entries superseded by a later entry for
// the same fact, counting the drops.
func dedupeEntries(entries []store.Entry, counters *peerCounters) []store.Entry {
	if len(entries) <= 1 {
		return entries
	}
	best := make(map[factKey]store.Entry, len(entries))
	order := make([]factKey, 0, len(entries))
	dropped := 0
	for _, e := range entries {
		fk := factKeyOf(e)
		old, ok := best[fk]
		if !ok {
			best[fk] = e
			order = append(order, fk)
			continue
		}
		dropped++
		if e.Version > old.Version {
			best[fk] = e
		}
	}
	if dropped == 0 {
		return entries
	}
	counters.gossipSuppressed.Add(int64(dropped))
	out := make([]store.Entry, 0, len(order))
	for _, fk := range order {
		out = append(out, best[fk])
	}
	return out
}

func (p *Peer) handleGossip(g gossipMsg, from simnet.NodeID) {
	for _, e := range g.Entries {
		if p.store.Apply(e) {
			p.stats.gossipApplied.Add(1)
		}
	}
	if g.AckID != 0 {
		wb, wm := p.advertiseWindow()
		p.net.Send(p.id, from, KindGossipAck, gossipAckMsg{
			ID: g.AckID, WinBytes: wb, WinMsgs: wm,
		})
	}
}

// scheduleAntiEntropy arms the periodic reconciliation timer.
func (p *Peer) scheduleAntiEntropy() {
	period := time.Duration(p.cfg.AntiEntropyEvery)
	p.net.After(period, func() {
		if p.net.Alive(p.id) {
			p.runAntiEntropy()
		}
		p.scheduleAntiEntropy()
	})
}

// digestPrefixBits is how many key bits PAST THE PEER'S PARTITION PATH
// bucket the digest: 16 buckets per index kind within the partition.
// Bucketing relative to the path matters — a replica group only ever
// holds keys inside its own partition, so absolute root-level prefixes
// would collapse the whole store into one bucket per kind. Buckets
// bound how much state one divergent fact drags into a pull request
// (the request's Have set is per differing bucket); the response is
// exact regardless of bucket shape, so clustered keys (the
// order-preserving value index concentrates a partition's keys on a
// shared long prefix) degrade the request size, never the response.
// Replicas share their path by construction, so bucket names agree
// within a group.
const digestPrefixBits = 4

// bucketDepth is the key-prefix length this peer's digest buckets use.
func (p *Peer) bucketDepth() int { return p.Path().Len() + digestPrefixBits }

// bucketID names the digest bucket of an entry: its index kind plus
// the leading depth bits of its placement key.
func bucketID(e store.Entry, depth int) string {
	if e.Key.Len() < depth {
		depth = e.Key.Len()
	}
	return strconv.Itoa(int(e.Kind)) + ":" + e.Key.Prefix(depth).String()
}

// digest summarizes the peer's whole versioned store per bucket. The
// bucket sums are order-independent (XOR hash, count, max), so the
// unordered FactsEach walk suffices — no per-round copy or sort.
func (p *Peer) digest() map[string]bucketSum {
	out := make(map[string]bucketSum)
	depth := p.bucketDepth()
	p.store.FactsEach(func(e store.Entry) {
		b := bucketID(e, depth)
		s := out[b]
		s.Count++
		if e.Version > s.MaxVersion {
			s.MaxVersion = e.Version
		}
		s.Hash ^= factHash(e)
		out[b] = s
	})
	return out
}

// factHash folds one versioned fact into an order-independent bucket
// hash.
func factHash(e store.Entry) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(e.Kind)})
	h.Write([]byte(e.Triple.OID))
	h.Write([]byte{0})
	h.Write([]byte(e.Triple.Attr))
	h.Write([]byte{0})
	if e.Deleted {
		h.Write([]byte{1})
	}
	var v [8]byte
	for i := 0; i < 8; i++ {
		v[i] = byte(e.Version >> (8 * i))
	}
	h.Write(v[:])
	return h.Sum64()
}

// runAntiEntropy opens a digest round with one random live replica.
func (p *Peer) runAntiEntropy() {
	p.mu.RLock()
	var alive []Ref
	for _, r := range p.replicas {
		if p.net.Alive(r.ID) {
			alive = append(alive, r)
		}
	}
	p.mu.RUnlock()
	if len(alive) == 0 {
		return
	}
	p.openDigestRound(alive[p.net.Intn(len(alive))].ID)
}

// openDigestRound sends this peer's digest to one replica, which
// answers with its own: each side then pulls the buckets it lacks.
//
// One round converges both ways except where a bucket holds unique
// facts on both sides and one side leads on count and version there:
// shouldPull defers the trailing side's facts to the next round. That
// is harmless for a join, whose state is empty or a stale subset; a
// replica pair formed by exchange (becomeReplicaOf) with such a bucket
// needs the next periodic round for full convergence.
func (p *Peer) openDigestRound(to simnet.NodeID) {
	p.stats.digestRounds.Add(1)
	p.net.Send(p.id, to, KindDigest, digestMsg{Buckets: p.digest(), Reply: true})
}

// shouldPull decides whether a bucket whose summaries differ is worth
// pulling from the sender. Pulling is skipped when the sender is
// provably BEHIND on that bucket (lower max version AND no more
// entries): whatever it holds, this side's copy supersedes or equals,
// and the sender will pull the other way off this side's digest. The
// one case the rule defers — the sender holds an old unique fact
// behind a bucket it otherwise trails in — resolves on the following
// round, after the sender has caught up and its count pulls ahead.
func shouldPull(mine, theirs bucketSum) bool {
	if mine == theirs {
		return false
	}
	return theirs.MaxVersion > mine.MaxVersion || theirs.Count > mine.Count ||
		(theirs.MaxVersion == mine.MaxVersion && theirs.Count == mine.Count)
}

// handleDigest compares the sender's summaries with local state and
// pulls the differing buckets the sender is ahead on; on the opening
// message of a round it answers with its own digest so the exchange
// reconciles both ways. Each pull carries this side's own bucket
// summaries so the responder can ship only the entries this side
// provably lacks.
func (p *Peer) handleDigest(msg digestMsg, from simnet.NodeID) {
	if msg.Reply {
		// The responder's participation in the round; the opener
		// counted at runAntiEntropy, and the reply leg is the same
		// round, not a new one.
		p.stats.digestRounds.Add(1)
	}
	mine := p.digest()
	var names []string
	for b, theirs := range msg.Buckets {
		if shouldPull(mine[b], theirs) {
			names = append(names, b)
		}
	}
	// Buckets only this side holds are not pulled — the other side will
	// request them off OUR digest (reply) or already did (we are the
	// reply); entries flow toward whoever lacks them either way.
	if len(names) > 0 {
		sort.Strings(names) // deterministic pull order
		p.pull(from, names, factPos{})
	}
	if msg.Reply {
		p.net.Send(p.id, from, KindDigest, digestMsg{Buckets: mine, Reply: false})
	}
}

// pull requests the named buckets from a replica, advertising this
// peer's receive window. Have carries, per bucket, the identity hashes
// of the entries held here, so the responder ships the exact set
// difference. after resumes a window-cut transfer: the responder skips
// the facts up to it in buckets[0], so their hashes stay home.
func (p *Peer) pull(from simnet.NodeID, buckets []string, after factPos) {
	want := make(map[string]bool, len(buckets))
	for _, b := range buckets {
		want[b] = true
	}
	have := make(map[string][]uint64, len(buckets))
	depth := p.bucketDepth()
	p.store.FactsEach(func(e store.Entry) {
		if b := bucketID(e, depth); want[b] && (b != buckets[0] || after.before(posOf(e))) {
			have[b] = append(have[b], factHash(e))
		}
	})
	wb, wm := p.advertiseWindow()
	p.net.Send(p.id, from, KindDigestPull, digestPullMsg{
		Buckets: buckets, Have: have, After: after, WinBytes: wb, WinMsgs: wm,
	})
}

// handleDigestPull answers a bucket pull with the entries the puller
// LACKS, in pages of at most Config.PageSize (0: one message), reusing
// the paging machinery's bound on response sizes — replica
// reconciliation is batched the way probes batch by owner. The pull's
// Have sets name what the puller already holds, so the response is the
// exact per-bucket set difference: a restarted replica catching up on
// a bucket pays for the entries it missed (inserts AND overwrites, the
// superseding version travels and Apply retires the stale copy), never
// for the bucket's size. A 64-bit identity-hash collision could
// withhold an entry — vanishingly unlikely, and the next periodic
// round retries with fresh divergent sums.
//
// The transfer is PULLER-paced: the pull's WinBytes/WinMsgs advertise
// the puller's receive window, and the responder stops once the next
// entry would overflow it (the first entry always ships). The final
// page then names the unfinished buckets (More) and the last fact
// shipped from the first of them (After), and the puller re-pulls from
// that cursor with a fresh window (handleAntiEntropy). Every round
// ships at least one entry past the cursor, so the loop always ends,
// and a catch-up streams at the puller's pace instead of burying it.
func (p *Peer) handleDigestPull(msg digestPullMsg, from simnet.NodeID) {
	p.stats.digestPulls.Add(1)
	// Every advertised window is a credit sighting: fold the puller's
	// into the sender-side table so bulk sends TOWARD it (eager gossip
	// above all) are gated before its first ack ever arrives.
	p.runFlow(p.flow.window(from, msg.WinBytes, msg.WinMsgs))
	want := make(map[string]bool, len(msg.Buckets))
	for _, b := range msg.Buckets {
		want[b] = true
	}
	have := make(map[uint64]bool)
	for _, hs := range msg.Have {
		for _, h := range hs {
			have[h] = true
		}
	}
	// Group the puller's missing entries per bucket, each in store fact
	// order (the order the cursor counts in), so an exhausted window can
	// name the unfinished buckets and the cursor exactly.
	depth := p.bucketDepth()
	missing := make(map[string][]store.Entry, len(msg.Buckets))
	for _, e := range p.store.Facts() {
		b := bucketID(e, depth)
		if !want[b] || have[factHash(e)] || (b == msg.Buckets[0] && !msg.After.before(posOf(e))) {
			continue
		}
		missing[b] = append(missing[b], e)
	}
	var (
		pages     [][]store.Entry
		batch     []store.Entry
		more      []string
		last      factPos // the last fact shipped from the current bucket
		sentBytes int
	)
	for _, b := range msg.Buckets {
		if len(more) > 0 {
			if len(missing[b]) > 0 {
				more = append(more, b)
			}
			continue
		}
		last = factPos{}
		for _, e := range missing[b] {
			sz := e.WireSize()
			if (len(pages) > 0 || len(batch) > 0) &&
				((msg.WinMsgs > 0 && len(pages) >= msg.WinMsgs) ||
					(msg.WinBytes > 0 && sentBytes+sz > msg.WinBytes)) {
				more = append(more, b)
				break
			}
			batch = append(batch, e)
			last = posOf(e)
			sentBytes += sz
			if p.cfg.PageSize > 0 && len(batch) >= p.cfg.PageSize {
				pages = append(pages, batch)
				batch = nil
			}
		}
	}
	if len(batch) > 0 {
		pages = append(pages, batch)
	}
	for i, pg := range pages {
		m := antiEntropyMsg{Entries: pg}
		if i == len(pages)-1 && len(more) > 0 {
			m.More, m.After = more, last
		}
		p.net.Send(p.id, from, KindAntiEnt, m)
	}
}

// handleAntiEntropy applies the entries answering a digest pull. A More
// list marks a transfer the responder cut at this peer's window: the
// named buckets are re-pulled from its cursor with a fresh window.
func (p *Peer) handleAntiEntropy(msg antiEntropyMsg, from simnet.NodeID) {
	for _, e := range msg.Entries {
		if p.store.Apply(e) {
			p.stats.gossipApplied.Add(1)
		}
	}
	if len(msg.More) > 0 {
		p.pull(from, msg.More, msg.After)
	}
}

// UpdateTriple writes a new value for fact (oid, attr) with a version
// from this peer's clock and routes it to all index peers; replicas
// receive it via eager push at the responsible peer.
func (p *Peer) UpdateTriple(tr triple.Triple) uint64 {
	v := p.NextClock()
	p.InsertTriple(tr, v)
	return v
}
