package pgrid

import (
	"time"

	"unistore/internal/simnet"
	"unistore/internal/store"
)

// This file implements P-Grid's decentralized construction: the trie
// emerges from pairwise exchanges between peers without central
// coordination or global knowledge (Aberer, CoopIS 2001). The same
// interaction merges two formerly independent overlays (the paper's
// "merging ... in a parallel fashion"), because an exchange only ever
// compares the two peers' paths.
//
// Exchange cases for peers a (initiator) and b, with cpl the length of
// their paths' common prefix:
//
//  1. identical paths  — both split: one takes bit 0, the other bit 1,
//     referencing each other at the new level (unless the depth limit
//     is reached, in which case they become replicas and reconcile).
//  2. one path is a prefix of the other — the shorter peer specializes
//     into the sibling subtree of the longer peer's next bit.
//  3. diverging paths — each records the other as a routing reference
//     at level cpl and adopts references for shallower levels.
//
// After any path change a peer re-homes entries it no longer covers by
// routing them as ordinary inserts.

// MaxSplitDepth bounds trie depth during exchanges; identical-path
// peers at the bound become replicas instead of splitting further.
// Depth 20 supports ~10^6 partitions, far beyond the experiments.
const MaxSplitDepth = 20

// startExchange initiates one exchange round-trip with peer `to`.
func (p *Peer) startExchange(to simnet.NodeID) {
	p.net.Send(p.id, to, KindExchange, p.exchangePayload(false))
}

func (p *Peer) exchangePayload(reply bool) exchangeMsg {
	p.mu.RLock()
	defer p.mu.RUnlock()
	refs := make([][]Ref, len(p.refs))
	for i, ls := range p.refs {
		refs[i] = append([]Ref(nil), ls...)
	}
	return exchangeMsg{
		Path:     p.path,
		Refs:     refs,
		Replicas: append([]Ref(nil), p.replicas...),
		IsReply:  reply,
	}
}

func (p *Peer) handleExchange(msg exchangeMsg, from simnet.NodeID) {
	p.stats.exchangesRun.Add(1)
	path := p.Path()
	cpl := path.CommonPrefixLen(msg.Path)

	// Adopt the sender's references for levels where our paths agree:
	// a reference valid for the sender at level l < cpl is valid for us.
	for l := 0; l < cpl && l < len(msg.Refs); l++ {
		for _, r := range msg.Refs[l] {
			p.addRef(l, r)
		}
	}

	switch {
	case path.Equal(msg.Path):
		p.exchangeEqualPaths(msg, from)
	case cpl == path.Len():
		// Our path is a proper prefix of the sender's: specialize into
		// the sibling of the sender's next bit.
		bit := msg.Path.Bit(cpl)
		p.setPath(path.Append(1 - bit))
		p.addRef(cpl, Ref{ID: from, Path: msg.Path})
		p.rehomeEntries()
	case cpl == msg.Path.Len():
		// The sender's path is a proper prefix of ours: it will
		// specialize when it processes our reply; meanwhile it serves
		// as a (coarse) reference for our sibling at its divergence.
		// Nothing to change locally beyond replying.
	default:
		// Diverging paths: mutual references at the divergence level.
		p.addRef(cpl, Ref{ID: from, Path: msg.Path})
		// Recursive refinement (Aberer's construction algorithm): the
		// sender's references may include peers more similar to us
		// than the sender itself — continuing the exchange with one of
		// them differentiates paths inside our own subtree, which
		// random global pairing alone reaches only slowly.
		p.recurseToward(msg, cpl)
	}

	if !msg.IsReply {
		p.net.Send(p.id, from, KindExchange, p.exchangePayload(true))
	}
}

// recurseToward starts a fresh exchange with the sender's reference
// whose path is strictly more similar to ours than the sender's own
// path. Strict improvement bounds the recursion by the trie depth.
func (p *Peer) recurseToward(msg exchangeMsg, cpl int) {
	path := p.Path()
	best := Ref{}
	bestCpl := cpl
	for _, ls := range msg.Refs {
		for _, r := range ls {
			if r.ID == p.id {
				continue
			}
			if c := path.CommonPrefixLen(r.Path); c > bestCpl {
				best, bestCpl = r, c
			}
		}
	}
	for _, r := range msg.Replicas {
		if r.ID == p.id {
			continue
		}
		if c := path.CommonPrefixLen(r.Path); c > bestCpl {
			best, bestCpl = r, c
		}
	}
	if bestCpl > cpl && p.net.Alive(best.ID) {
		p.startExchange(best.ID)
	}
}

// exchangeEqualPaths handles the identical-path case: split or merge
// into a replica group.
//
// Only the responder of a fresh exchange splits eagerly; the initiator
// follows up when it processes the reply (its then-shorter path
// specializes against the responder's extended one). Splitting on a
// *reply* would be unilateral — the responder gets no further message
// and could be left covering a region the initiator also claims — so
// when paths are equal on a reply the peers simply coexist (implicit
// replicas) until a later round pairs them again.
func (p *Peer) exchangeEqualPaths(msg exchangeMsg, from simnet.NodeID) {
	path := p.Path()
	if msg.IsReply {
		// Resolve the coexistence promptly: a fresh (non-reply)
		// exchange makes the other peer the responder, which splits,
		// and our processing of its reply specializes us. At the depth
		// limit the peers are replicas by design — no follow-up, or
		// the pair would re-exchange forever.
		if path.Len() < MaxSplitDepth {
			p.startExchange(from)
		}
		return
	}
	if path.Len() >= MaxSplitDepth {
		p.becomeReplicaOf(msg, from)
		return
	}
	// Both peers extend the shared path; the tie is broken by node id,
	// which both sides can compute without coordination.
	var myBit int
	if p.id < from {
		myBit = 0
	} else {
		myBit = 1
	}
	p.setPath(path.Append(myBit))
	p.addRef(path.Len(), Ref{ID: from, Path: msg.Path.Append(1 - myBit)})
	// Former replicas stay replicas only if they took the same side;
	// we cannot know, so drop them — anti-entropy re-discovers.
	p.mu.Lock()
	p.replicas = nil
	p.mu.Unlock()
	p.rehomeEntries()
}

func (p *Peer) becomeReplicaOf(msg exchangeMsg, from simnet.NodeID) {
	path := p.Path()
	p.addReplica(Ref{ID: from, Path: msg.Path})
	for _, r := range msg.Replicas {
		if r.Path.Equal(path) {
			p.addReplica(r)
		}
	}
	// Reconcile data with the new replica: one digest round, both ways
	// (see openDigestRound for the one case it leaves to the next).
	p.openDigestRound(from)
}

// rehomeEntries re-writes every entry the peer no longer covers; the
// overlay routes each to its new responsible peer. Entries for which no
// live route exists yet are parked locally instead of dropped — a later
// path change re-homes them again, and serving stale data beats losing
// it under P-Grid's best-effort guarantees.
func (p *Peer) rehomeEntries() {
	path := p.Path()
	levels := p.Levels()
	var moved []store.Entry
	for kind := 0; kind < 3; kind++ {
		r := partitionRange(path)
		dropped := p.store.RetainRange(kindOf(kind), r)
		for _, e := range dropped {
			level := e.Key.CommonPrefixLen(path)
			if level < levels {
				if _, ok := p.pickRef(level); ok {
					moved = append(moved, e)
					continue
				}
			}
			p.store.Apply(e)
		}
	}
	for len(moved) > 0 {
		n := min(len(moved), MaxWriteEntries)
		p.Write(moved[:n], nil)
		moved = moved[n:]
	}
}

// RunMerge connects two formerly independent overlays living in the
// same network: each peer of one exchanges with random peers of the
// other over `rounds` rounds (in parallel, as the paper highlights),
// after which routing tables interlink and re-homed data migrates.
func RunMerge(net *simnet.Network, a, b []*Peer, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range a {
			q := b[net.Intn(len(b))]
			p.startExchange(q.id)
		}
		for _, p := range b {
			q := a[net.Intn(len(a))]
			p.startExchange(q.id)
		}
		net.RunFor(5 * time.Second)
		net.Settle()
	}
}
