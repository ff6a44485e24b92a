package shardhost

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// BurstWindow bounds the entries one window of turns holds (see Runner).
// Fixed, so a window's arrays live on the Runner and running one allocates
// nothing.
const BurstWindow = 32

// Runner runs one shard engine's turns, in the manner of the paper's Wings
// workers (§4.2): what a runtime has for the engine goes in — arrivals
// (Deliver), installs queued among them (InstallMsg), client ops (Submit) —
// and runs in windows of at most BurstWindow entries. A window is filled
// first, recording the keys its turns will touch; they are prefetched in one
// pass (MICA's batched lookups), and only then do its turns run, messages
// then ops, each in arrival order, so the store misses of a window's keys
// overlap instead of queueing one turn at a time. A window runs when it is
// full and when Run is called; HandOff then ends the burst by flushing the
// egress.
//
// Both runtimes drive an engine through one: the live shard has it drain its
// queues (Burst) under the engine lock, and the simulator hands it what each
// event carries. The Runner is also its engine's Base (through the Egress): a
// submitted op's completion goes to the callback it was submitted with, or to
// the runtime's Base when it came with none.
//
// Not safe for concurrent use, except Flushed: only whoever runs the
// engine's turns touches it.
type Runner struct {
	h       *core.Hermes
	out     *Egress
	base    Base
	pending map[uint64]func(proto.Completion)

	// The window: msgs[:nm] then ops[:no], in arrival order, and keys[:nk],
	// the store keys their turns will resolve.
	msgs       [BurstWindow]Arrival
	ops        [BurstWindow]Op
	keys       [BurstWindow]proto.Key
	nm, no, nk int

	// The egress counters, added at each hand-off (see Flushed).
	batches, coalesced, singles atomic.Uint64
}

// Arrival is a protocol message on its way to an engine, and its sender.
type Arrival struct {
	From proto.NodeID
	Msg  any
}

// Op is a client op on its way to an engine, carrying the callback its
// completion goes to.
type Op struct {
	Op   proto.ClientOp
	Done func(proto.Completion)
}

// InstallMsg is an m-update queued among a shard's arrivals, so it keeps its
// place among them: a peer's messages sent before its MUpdate run under the
// old epoch, and those sent after it under the new one. Done, if not nil, is
// closed once the transition has run.
type InstallMsg struct {
	View proto.View
	Done chan struct{}
}

// NewRunner builds shard's engine from cfg, with the shard's Egress over
// wire as its Env, and the runner that drives it. base supplies the clock
// and the completions no callback claims.
func NewRunner(shard uint16, base Base, wire func(to proto.NodeID, msg any), cfg core.Config) *Runner {
	r := &Runner{base: base, pending: make(map[uint64]func(proto.Completion))}
	r.out = NewEgress(shard, r, wire)
	cfg.Env = r.out
	r.h = core.New(cfg)
	return r
}

// Engine is the state machine the runner drives.
func (r *Runner) Engine() *core.Hermes { return r.h }

// Egress is the engine's Env.
func (r *Runner) Egress() *Egress { return r.out }

// Now implements Base: the runtime's clock.
func (r *Runner) Now() time.Duration { return r.base.Now() }

// Complete implements Base. It runs on whichever goroutine runs the turn,
// so the callback must not block.
func (r *Runner) Complete(c proto.Completion) {
	if done, ok := r.pending[c.OpID]; ok {
		delete(r.pending, c.OpID)
		done(c)
		return
	}
	r.base.Complete(c)
}

// Deliver puts an arrival (or an InstallMsg) in the window, running the
// window first if it is full.
func (r *Runner) Deliver(from proto.NodeID, msg any) {
	if r.nm+r.no == BurstWindow {
		r.Run()
	}
	r.msgs[r.nm] = Arrival{from, msg}
	r.nm++
	if k, ok := core.MsgKey(msg); ok {
		r.keys[r.nk] = k
		r.nk++
	}
}

// Submit puts a client op in the window, running the window first if it is
// full. done, if not nil, receives the op's completion.
func (r *Runner) Submit(op proto.ClientOp, done func(proto.Completion)) {
	if r.nm+r.no == BurstWindow {
		r.Run()
	}
	r.ops[r.no] = Op{op, done}
	r.no++
	r.keys[r.nk] = op.Key
	r.nk++
}

// Burst runs everything queued on msgs and ops when it starts — the
// messages, then the ops — in windows. Batching is opportunistic: a burst is
// what was queued, never waited for, and that bound is also what keeps a
// runtime's ticks and stop reachable under a producer that never lets a queue
// run dry. The caller must be the queues' only receiver, so as many receives
// as len reported find an entry; they are non-blocking all the same, since a
// turn's goroutine must never wait.
func (r *Runner) Burst(msgs <-chan Arrival, ops <-chan Op) {
	nm, no := len(msgs), len(ops)
	for ; nm > 0; nm-- {
		select {
		case a := <-msgs:
			r.Deliver(a.From, a.Msg)
		default:
		}
	}
	for ; no > 0; no-- {
		select {
		case o := <-ops:
			r.Submit(o.Op, o.Done)
		default:
		}
	}
	r.Run()
}

// Run prefetches the keys of the window's turns, runs the turns — messages,
// then ops, each in arrival order — and empties the window.
func (r *Runner) Run() {
	r.h.Prefetch(r.keys[:r.nk])
	for i := range r.msgs[:r.nm] {
		if m, ok := r.msgs[i].Msg.(InstallMsg); ok {
			// An install's turn. The VALs the egress holds leave first,
			// under the epoch they were sent in; held across the transition
			// they would reach peers that had moved on, and be dropped as
			// stale.
			r.HandOff(true)
			r.h.OnViewChange(m.View)
			if m.Done != nil {
				close(m.Done)
			}
		} else {
			r.h.Deliver(r.msgs[i].From, r.msgs[i].Msg)
		}
		r.msgs[i] = Arrival{} // the window must not keep a turn's message alive
	}
	for i := range r.ops[:r.no] {
		s := r.ops[i]
		if s.Done != nil {
			// Recorded before Submit: a local read completes within the call.
			r.pending[s.Op.ID] = s.Done
		}
		r.h.Submit(s.Op)
		r.ops[i] = Op{}
	}
	r.nm, r.no, r.nk = 0, 0, 0
}

// HandOff ends a burst: it flushes the egress — every stage when all is set
// (a tick's end), else the ones not holding VALs alone (Egress) — and counts
// what left.
func (r *Runner) HandOff(all bool) {
	if b, c, s := r.out.flush(all); b+c+s > 0 {
		r.batches.Add(b)
		r.coalesced.Add(c)
		r.singles.Add(s)
	}
}

// Idle reports whether the engine needs no tick: nothing armed, and nothing
// held in the egress for a tick's FlushAll.
func (r *Runner) Idle() bool { return r.h.Idle() && !r.out.Holding() }

// Discard is what a runtime runs instead of a burst once it has stopped:
// nothing completes an op any more, so it fails the ops the engine holds and
// the queued ones with proto.NotOperational, and releases the frame
// references the queued messages carry.
func (r *Runner) Discard(msgs <-chan Arrival, ops <-chan Op) {
	for id, done := range r.pending {
		delete(r.pending, id)
		done(proto.Completion{OpID: id, Status: proto.NotOperational})
	}
	for {
		select {
		case o := <-ops:
			o.Done(proto.Completion{OpID: o.Op.ID, Status: proto.NotOperational})
		case a := <-msgs:
			core.ReleaseMsgOwners(a.Msg)
		default:
			return
		}
	}
}

// Flushed reports what the hand-offs have sent so far: batches, the messages
// inside them, and messages that left alone. Safe mid-traffic.
func (r *Runner) Flushed() (batches, coalesced, singles uint64) {
	return r.batches.Load(), r.coalesced.Load(), r.singles.Load()
}
