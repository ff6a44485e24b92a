package shardhost

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// Base is what a runtime lends a shard engine besides the wire: its clock
// and where its completions go. With Egress.Send it makes a proto.Env.
type Base interface {
	Now() time.Duration
	Complete(proto.Completion)
}

// Egress is one shard engine's proto.Env and the node's egress policy: which
// messages are staged, when a stage leaves, and where it is split. Send tags
// every message with the shard index; the small protocol messages (INVs,
// ACKs, VALs) are staged per peer, in send order, everything else goes
// straight to the wire. A stage leaves as one proto.ShardBatch (several past
// the byte budget), or as a plain ShardMsg when it holds one message.
//
// Flush ends a window of engine turns: every stage holding an INV or an ACK
// leaves, and a stage holding only VALs stays. A VAL is off its write's
// critical path — the write committed when its ACKs arrived (paper §3.2) —
// so it waits for company: it leaves in the same batch as the next INV or
// ACK this shard stages for that peer, or at FlushAll, which sends every
// stage. A Runner's hand-off runs Flush at the end of every burst and
// FlushAll at the end of a tick's, and before an install, so a held VAL never
// outlives its epoch. The simulator hands off when each of its replica's
// entry points returns, all stages when Tick does.
// The tick period therefore bounds how long a lone VAL waits, and with it how
// long an idle follower sees a committed key as Invalid. Only VALs are held:
// they carry no value, so holding one pins no pooled buffer.
//
// Not safe for concurrent use: only the goroutine running the engine's turns
// touches it.
type Egress struct {
	base  Base
	wire  func(to proto.NodeID, msg any)
	shard uint16
	// stages holds what the current window has staged, one entry per peer
	// this shard has ever addressed — a handful, so lookup is a scan —
	// ordered by peer.
	stages []stage
}

// stage is what one window sends one peer, in send order, after the VALs
// held from earlier windows.
type stage struct {
	to   proto.NodeID
	msgs []proto.ShardMsg
	// company counts the staged INVs and ACKs: a non-empty stage with none
	// holds only VALs, which Flush keeps.
	company int
}

// NewEgress builds shard's egress: base supplies the engine's clock and
// completions, wire puts a message on the network. wire must not retain a
// ShardBatch's slice after it returns: Flush recycles it.
func NewEgress(shard uint16, base Base, wire func(to proto.NodeID, msg any)) *Egress {
	return &Egress{base: base, wire: wire, shard: shard}
}

// Now implements proto.Env.
func (e *Egress) Now() time.Duration { return e.base.Now() }

// Complete implements proto.Env.
func (e *Egress) Complete(c proto.Completion) { e.base.Complete(c) }

// Send implements proto.Env. Small messages are staged: at W shards they
// dominate the frame rate, and no protocol property depends on their order
// relative to the direct path (links are lossy and reordering anyway).
func (e *Egress) Send(to proto.NodeID, msg any) {
	sm := proto.ShardMsg{Shard: e.shard, Msg: msg}
	switch msg.(type) {
	case core.INV, core.ACK:
		st := e.stage(to)
		st.msgs = append(st.msgs, sm)
		st.company++
	case core.VAL:
		st := e.stage(to)
		st.msgs = append(st.msgs, sm)
	default:
		e.wire(to, sm)
	}
}

// stage returns the stage for a peer, inserting it in peer order on first
// contact. The pointer is good until the next call.
func (e *Egress) stage(to proto.NodeID) *stage {
	i := 0
	for ; i < len(e.stages); i++ {
		if st := &e.stages[i]; st.to == to {
			return st
		} else if st.to > to {
			break
		}
	}
	e.stages = append(e.stages, stage{})
	copy(e.stages[i+1:], e.stages[i:])
	e.stages[i] = stage{to: to}
	return &e.stages[i]
}

// Flush sends every stage that holds an INV or an ACK — several batches past
// the byte budget — peer by peer, VALs held from earlier windows included,
// and reports what left: batches, the messages inside them, and messages that
// left alone. A stage of VALs alone stays staged. Over a transport.Mesh the
// first send to a peer starts that peer's link flusher and the rest are
// queued before it runs: one wake-up, one frame, one write per peer per
// window.
func (e *Egress) Flush() (batches, coalesced, singles uint64) { return e.flush(false) }

// FlushAll is Flush that also sends the stages of VALs alone: the end of a
// tick, and what runs before an install.
func (e *Egress) FlushAll() (batches, coalesced, singles uint64) { return e.flush(true) }

// Holding reports whether a stage still holds messages, as the VALs alone
// that Flush leaves do: only a FlushAll sends them.
func (e *Egress) Holding() bool {
	for i := range e.stages {
		if len(e.stages[i].msgs) > 0 {
			return true
		}
	}
	return false
}

func (e *Egress) flush(all bool) (batches, coalesced, singles uint64) {
	for i := range e.stages {
		st := &e.stages[i]
		if len(st.msgs) == 0 || st.company == 0 && !all {
			continue
		}
		st.company = 0
		for rest := st.msgs; len(rest) > 0; {
			n := frameLen(rest)
			if n == 1 {
				// A lone message ships as a plain ShardMsg: no envelope
				// overhead.
				singles++
				e.wire(st.to, rest[0])
			} else {
				batches++
				coalesced += uint64(n)
				e.wire(st.to, proto.ShardBatch{Msgs: rest[:n]})
			}
			rest = rest[n:]
		}
		if cap(st.msgs) > maxSpareMsgs {
			st.msgs = nil
			continue
		}
		// The wire has encoded or copied the messages and spent their buffer
		// references; a sent INV must not stay reachable through the stage's
		// array.
		clear(st.msgs)
		st.msgs = st.msgs[:0]
	}
	return batches, coalesced, singles
}

// maxBatchBytes budgets one batch. INVs carry values, so a stage can grow
// arbitrarily; past the budget it leaves as several batches, keeping
// per-message encode latency bounded while still amortizing the framing. A
// single oversized INV still ships alone.
const maxBatchBytes = 64 << 10

// msgOverhead is the fixed header shardMsgSize charges every message.
const msgOverhead = 32

// Every message is charged at least msgOverhead, so the byte budget alone
// keeps a batch within maxBatchBytes/msgOverhead messages (2048): inside the
// codec's 2-byte count. This conversion stops compiling if either constant
// moves past that.
const _ = uint16(maxBatchBytes / msgOverhead)

// shardMsgSize estimates one staged message's wire footprint for the byte
// budget: fixed header plus the value an INV carries.
func shardMsgSize(sm proto.ShardMsg) int {
	if inv, ok := sm.Msg.(core.INV); ok {
		return msgOverhead + len(inv.Value)
	}
	return msgOverhead
}

// maxSpareMsgs caps the capacity of a stage buffer kept for reuse (24 B an
// entry): one grown past it by one huge window goes back to the collector
// once it has been sent.
const maxSpareMsgs = 4096

// frameLen is how many of the staged messages go into the next batch: all
// that the byte budget allows.
func frameLen(staged []proto.ShardMsg) int {
	size := 0
	for i, sm := range staged {
		size += shardMsgSize(sm)
		if size > maxBatchBytes && i > 0 {
			return i
		}
	}
	return len(staged)
}
