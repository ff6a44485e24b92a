// Package cluster is the live runtime: it hosts the same protocol state
// machines the simulator runs, but on goroutines with real time and a
// pluggable transport — an in-process channel mesh for single-binary
// deployments and tests, or TCP via internal/transport for a real
// distributed deployment (cmd/hermes-node). This is the library surface a
// downstream user embeds: NewShardedLocal to stand up a replica group, and
// ShardedNode's Read, Write, CAS and FAA for blocking linearizable ops.
//
// Architecture: a replica (ShardedNode) runs one event-loop goroutine per
// shard, each owning one protocol state machine
// (Submit/Deliver/Tick/OnViewChange are never called concurrently on it).
// Which shard a message belongs to, what an m-update installs where, the
// view log, the staggered roll of node-wide views, epoch gossip and how an
// engine's sends are staged into batches are internal/shardhost's — the code
// the simulator runs too; one control-plane goroutine per node steps it
// (ShardedNode.control), and each event loop flushes its engine's stager at
// the end of every burst (Shard.loop). Local linearizable
// reads take the HermesKV fast path (§4.1): gated by core.ReadGate they
// consult the shared kvs.Store directly on the caller's goroutine, and only
// enter the event loop when the key is not Valid, the gate is shut (view
// installation in flight, non-serving replica) or NoLSC mode demands the §8
// speculative path.
package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/shardhost"
)

// Transport delivers messages between replica processes.
//
// Send never blocks: the shard event loops call it, and one that waited on a
// peer — a dial, a full socket — would stall every key
// its shard owns. A transport that must wait queues, and sheds past its bound
// (transport.Mesh queues in the peer's wings.Link; ChanTransport drops on a
// full inbox).
//
// Ownership, both directions: a message belongs to whoever hands it over
// only for the duration of the call. Send must not retain msg — nor the
// slice of messages a proto.ShardBatch carries — after it returns, because
// senders recycle those buffers (a shard clears and reuses its stage's slice
// the moment Send is back); an implementation that queues must encode or copy
// first, as wings.Link.Post and ChanTransport.Send do. The
// pooled-buffer references msg carries (core.INV.Owner) pass to the
// transport with the call; the caller never releases them afterwards.
// Likewise the deliver callback may use msg, and a delivered batch's slice in
// particular, only until it returns. What may be kept on either side: the
// inner messages (they are values), and value bytes (proto.Value), which are
// immutable once sent.
type Transport interface {
	// Send delivers msg from one node to another without ever blocking;
	// best-effort (the protocols tolerate loss).
	Send(from, to proto.NodeID, msg any)
	// SetDeliver installs the arrival callback for node id.
	SetDeliver(id proto.NodeID, fn func(from proto.NodeID, msg any))
	// Close releases resources.
	Close() error
}

// ChanTransport is an in-process mesh of buffered channels with optional
// fault injection, for tests and single-binary clusters. The inbox map is
// filled once by NewChanTransport and only read afterwards, so it needs no
// lock.
type ChanTransport struct {
	inboxes map[proto.NodeID]chan env
	drop    atomic.Pointer[func(from, to proto.NodeID, msg any) bool]
	closed  chan struct{}
	wg      sync.WaitGroup
}

type env struct {
	from proto.NodeID
	msg  any
}

// NewChanTransport builds a mesh for the given node IDs.
func NewChanTransport(ids []proto.NodeID) *ChanTransport {
	t := &ChanTransport{
		inboxes: make(map[proto.NodeID]chan env),
		closed:  make(chan struct{}),
	}
	for _, id := range ids {
		t.inboxes[id] = make(chan env, 4096)
	}
	return t
}

// SetDrop installs a fault-injection predicate (nil clears).
func (t *ChanTransport) SetDrop(fn func(from, to proto.NodeID, msg any) bool) {
	if fn == nil {
		t.drop.Store(nil)
		return
	}
	t.drop.Store(&fn)
}

// Send implements Transport.
func (t *ChanTransport) Send(from, to proto.NodeID, msg any) {
	if d := t.drop.Load(); d != nil && (*d)(from, to, msg) {
		return
	}
	ch := t.inboxes[to]
	if ch == nil {
		return
	}
	if sb, ok := msg.(proto.ShardBatch); ok {
		// A queued batch needs a slice of its own: the message crosses to the
		// receiving node's pump by reference, and the sender recycles the
		// batch's slice once Send returns (the Transport contract).
		msg = proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)}
	}
	select {
	case ch <- env{from: from, msg: msg}:
	case <-t.closed:
	default:
		// Full inbox: drop (the protocols' retransmission recovers). This
		// models bounded NIC queues rather than blocking the sender.
	}
}

// SetDeliver implements Transport and starts the pump goroutine, the only
// consumer of id's inbox: call it once per id.
func (t *ChanTransport) SetDeliver(id proto.NodeID, fn func(proto.NodeID, any)) {
	ch := t.inboxes[id]
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case e := <-ch:
				fn(e.from, e.msg)
			case <-t.closed:
				return
			}
			// The rest of the burst: what was queued at wake-up, by plain
			// receives. The pump is the inbox's only consumer, so they cannot
			// block, and the bound keeps Close reachable under a full inbox.
			for queued := len(ch); queued > 0; queued-- {
				e := <-ch
				fn(e.from, e.msg)
			}
		}
	}()
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	select {
	case <-t.closed:
	default:
		close(t.closed)
	}
	t.wg.Wait()
	return nil
}

// Shard hosts one core.Hermes engine — one keyspace partition of a
// ShardedNode — on its own event-loop goroutine. It owns no transport-facing
// dispatch: the node routes arrivals to it (deliver), and its outgoing
// messages leave through its shardhost.Egress, the engine's Env.
type Shard struct {
	id     proto.NodeID
	sn     *ShardedNode
	h      *core.Hermes
	out    *shardhost.Egress
	ops    chan submitted
	msgs   chan env
	stop   chan struct{}
	wg     sync.WaitGroup
	nextOp atomic.Uint64
	// updates counts submitted update ops (writes, CAS, FAA); together with
	// the read counters it is the live load signal the roll orders shards
	// by.
	updates atomic.Uint64

	// pending holds the completion callback of every op the engine has been
	// handed and not yet completed. Only the event-loop goroutine touches it.
	pending map[uint64]func(proto.Completion)

	// win is the burst window the event loop drains its queues into; only
	// the loop touches it.
	win burstWin

	start time.Time
}

// burstWindow bounds the queued messages and ops one window of a burst takes
// (see Shard.loop). Fixed, so the window's arrays live on the Shard and a
// burst allocates nothing.
const burstWindow = 32

// burstWin is one window of a burst: msgs[:nm] then ops[:no], in arrival
// order, and keys, the store keys their turns will resolve.
type burstWin struct {
	msgs [burstWindow]env
	ops  [burstWindow]submitted
	keys [burstWindow]proto.Key
	nm   int
	no   int
}

// full reports whether the window holds burstWindow entries.
func (w *burstWin) full() bool { return w.nm+w.no == burstWindow }

// submitted is one client op on its way to the event loop, carrying the
// callback its completion goes to.
type submitted struct {
	op   proto.ClientOp
	done func(proto.Completion)
}

// nodeEnv is the Shard's clock and completion sink, the shardhost.Base of
// its egress. Only the event-loop goroutine invokes it.
type nodeEnv struct{ n *Shard }

func (e nodeEnv) Now() time.Duration { return time.Since(e.n.start) }
func (e nodeEnv) Complete(c proto.Completion) {
	// An OpID with no entry is a no-op. done runs here, on the event-loop
	// goroutine, so it must not block — the contract SubmitAsync documents.
	if done := e.n.pending[c.OpID]; done != nil {
		delete(e.n.pending, c.OpID)
		done(c)
	}
}

// newShard builds and starts shard idx of node sn.
func newShard(cfg ShardedConfig, sn *ShardedNode, idx int) *Shard {
	n := &Shard{
		id:      cfg.ID,
		sn:      sn,
		ops:     make(chan submitted, 1024),
		msgs:    make(chan env, 8192),
		stop:    make(chan struct{}),
		pending: make(map[uint64]func(proto.Completion)),
		start:   time.Now(),
	}
	n.out = shardhost.NewEgress(uint16(idx), nodeEnv{n: n}, func(to proto.NodeID, msg any) { sn.tr.Send(sn.id, to, msg) })
	n.h = core.New(core.Config{
		ID: cfg.ID, View: cfg.View.Clone(), Env: n.out, Store: kvs.New(64),
		MLT: cfg.MLT, NoLSC: cfg.NoLSC,
	})
	n.wg.Add(1)
	go n.loop(cfg.TickEvery)
	return n
}

// deliver queues an arrived protocol message for the event loop. The inbox
// almost always has room, so the send is tried on its own first: a lone
// non-blocking send costs a fraction of a two-way select.
func (n *Shard) deliver(from proto.NodeID, msg any) {
	e := env{from: from, msg: msg}
	select {
	case n.msgs <- e:
		return
	default:
	}
	select {
	case n.msgs <- e:
	case <-n.stop:
		// Dropped on shutdown: spend the frame references wings decode
		// retained for the message's values, like any other drop path.
		core.ReleaseMsgOwners(msg)
	}
}

// loop is the shard's event loop, a burst machine in the manner of the
// paper's Wings workers (§4.2): after any wake-up it takes everything that was
// already queued — messages, then ops — runs one engine turn for each, and
// only then sends what those turns staged, one batch per peer and class
// (handOff). Batching is opportunistic: a burst is what was queued at
// wake-up, never waited for, and that bound is also what keeps Tick and stop
// reachable under a producer that never lets the inbox run dry. Every
// iteration ends with the hand-off, whichever arm woke it, so nothing is
// staged while the loop blocks.
//
// A burst runs in windows of at most burstWindow entries, the wake-up's own
// message or op first. Each window is received in full, then the keys its
// turns will touch are prefetched in one pass (MICA's batched lookups), and
// only then do its turns run, in arrival order: the store misses of a
// window's keys overlap instead of queueing one turn at a time behind each
// other.
func (n *Shard) loop(tickEvery time.Duration) {
	defer n.wg.Done()
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			// Nothing completes an op once the loop is gone: fail the ones
			// the engine holds, then the ones still queued.
			for id, done := range n.pending {
				done(proto.Completion{OpID: id, Status: proto.NotOperational})
			}
			n.failQueued()
			return
		case e := <-n.msgs:
			n.win.msgs[0], n.win.nm = e, 1
		case s := <-n.ops:
			n.win.ops[0], n.win.no = s, 1
		case <-ticker.C:
			n.h.Tick()
		}
		// This goroutine is the only consumer of both queues, so as many plain
		// receives as len reported cannot block.
		queuedMsgs, queuedOps := len(n.msgs), len(n.ops)
		for {
			w := &n.win
			for ; queuedMsgs > 0 && !w.full(); queuedMsgs-- {
				w.msgs[w.nm] = <-n.msgs
				w.nm++
			}
			for ; queuedOps > 0 && !w.full(); queuedOps-- {
				w.ops[w.no] = <-n.ops
				w.no++
			}
			if w.nm+w.no == 0 {
				break
			}
			n.runWindow()
		}
		n.handOff()
	}
}

// handOff ends a burst: it flushes the egress and adds what left to the
// node's counters. Transport.Send does not block and does not keep what it
// is given, so the flush runs on the event loop.
func (n *Shard) handOff() {
	if batches, coalesced, singles := n.out.Flush(); batches+singles > 0 {
		n.sn.batchesOut.Add(batches)
		n.sn.coalescedOut.Add(coalesced)
		n.sn.singlesOut.Add(singles)
	}
}

// runWindow prefetches the keys of the window's turns, runs the turns —
// messages, then ops, each in arrival order — and empties the window.
func (n *Shard) runWindow() {
	w := &n.win
	nk := 0
	for _, e := range w.msgs[:w.nm] {
		if k, ok := core.MsgKey(e.msg); ok {
			w.keys[nk] = k
			nk++
		}
	}
	for i := range w.ops[:w.no] {
		w.keys[nk] = w.ops[i].op.Key
		nk++
	}
	n.h.Prefetch(w.keys[:nk])
	for i := range w.msgs[:w.nm] {
		n.handle(w.msgs[i])
		w.msgs[i] = env{} // the window must not keep a turn's message alive
	}
	for i := range w.ops[:w.no] {
		n.accept(w.ops[i])
		w.ops[i] = submitted{}
	}
	w.nm, w.no = 0, 0
}

// handle runs one arrived message's turn.
func (n *Shard) handle(e env) {
	if fn, ok := e.msg.(loopFn); ok {
		fn()
		return
	}
	n.h.Deliver(e.from, e.msg)
}

// accept runs one submitted op's turn.
func (n *Shard) accept(s submitted) {
	// Recorded before Submit: a local read completes within the call.
	n.pending[s.op.ID] = s.done
	n.h.Submit(s.op)
}

// failQueued fails every op still in the queue. Only for after the stop
// signal: the loop calls it on its way out, and so does a submitter whose
// enqueue may have landed behind that.
func (n *Shard) failQueued() {
	for {
		select {
		case s := <-n.ops:
			s.done(proto.Completion{OpID: s.op.ID, Status: proto.NotOperational})
		default:
			return
		}
	}
}

// Hermes exposes the protocol instance (metrics, view, store).
func (n *Shard) Hermes() *core.Hermes { return n.h }

// installView delivers an m-update to the engine and blocks until its §3.4
// transition completes. The lock-free read gate is shut before the m-update
// enters the event loop, so fast-path reads fall back to the Submit path for
// the entire transition window; OnViewChange republishes the gate under the
// new epoch.
func (n *Shard) installView(v proto.View) {
	n.h.ReadGate().Shut()
	done := make(chan struct{})
	n.enqueueFn(func() { n.h.OnViewChange(v); close(done) })
	<-done
}

// installAsync is installView without the completion wait: the gate shuts
// immediately and the m-update is queued behind whatever the event loop is
// doing. Used when the caller is a transport pump that must not block on a
// busy shard (OnViewChange republishes the gate when it runs — including for
// duplicate or stale epochs, so a redelivered MUpdate cannot wedge the gate
// shut).
func (n *Shard) installAsync(v proto.View) {
	n.h.ReadGate().Shut()
	n.enqueueFn(func() { n.h.OnViewChange(v) })
}

// enqueueFn runs fn on the event loop by disguising it as a message.
func (n *Shard) enqueueFn(fn func()) {
	select {
	case n.msgs <- env{from: n.id, msg: loopFn(fn)}:
	case <-n.stop:
	}
}

// loopFn is an internal message type executed by Deliver interception.
type loopFn func()

func (n *Shard) close() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// ErrClosed reports an operation on a stopped node.
var ErrClosed = errors.New("cluster: node closed")

// ErrAborted reports an RMW that lost to a concurrent conflicting update
// (paper §3.6); the operation had no effect and may be retried.
var ErrAborted = errors.New("cluster: rmw aborted by concurrent update")

// ErrNotOperational reports a replica without a valid membership lease.
var ErrNotOperational = errors.New("cluster: replica not operational")

// submit assigns op its ID and queues it for the event loop together with
// the callback its completion goes to. An error means done will never run;
// nil means it runs exactly once.
func (n *Shard) submit(ctx context.Context, op proto.ClientOp, done func(proto.Completion)) error {
	// Checked first: ops is buffered, so once the loop has exited a send
	// would succeed into a queue nobody reads.
	select {
	case <-n.stop:
		return ErrClosed
	default:
	}
	op.ID = n.nextOp.Add(1)
	if op.Kind.IsUpdate() {
		n.updates.Add(1)
	}
	s := submitted{op: op, done: done}
	select {
	case n.ops <- s: // room in the queue, the usual case: no three-way select
	default:
		select {
		case n.ops <- s:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stop:
			return ErrClosed
		}
	}
	// The stop signal may have fired between the check above and the enqueue,
	// and the loop's parting sweep may have run before the op landed. If the
	// signal is up, wait the loop out and sweep again: whatever is queued then
	// — this op, unless the loop got to it — has nobody else to fail it.
	select {
	case <-n.stop:
		n.wg.Wait()
		n.failQueued()
	default:
	}
	return nil
}

// opSink is where a blocking op waits for its completion: a callback, like
// every other op's, that hands the completion to the waiting goroutine.
type opSink struct {
	ch   chan proto.Completion
	done func(proto.Completion)
}

// opSinks recycles them, callback bound once, so the blocking API allocates
// nothing SubmitAsync does not. done runs on the event loop and must not
// block: ch has room for one completion and done runs once per op, so a sink
// may go back to the pool only when it is provably empty — its completion
// was received, or its op was never queued.
var opSinks = sync.Pool{
	New: func() any {
		ch := make(chan proto.Completion, 1)
		return &opSink{ch: ch, done: func(c proto.Completion) { ch <- c }}
	},
}

func (n *Shard) do(ctx context.Context, op proto.ClientOp) (proto.Completion, error) {
	sink := opSinks.Get().(*opSink)
	if err := n.submit(ctx, op, sink.done); err != nil {
		opSinks.Put(sink)
		return proto.Completion{}, err
	}
	select {
	case c := <-sink.ch:
		opSinks.Put(sink)
		if c.Status == proto.NotOperational {
			return c, ErrNotOperational
		}
		return c, nil
	case <-ctx.Done():
		// NOT pooled: the completion still arrives, whenever the op commits,
		// and a reused sink would hand it to an unrelated op.
		return proto.Completion{}, ctx.Err()
	case <-n.stop:
		// NOT pooled either: the stopping loop fails the op on its way out.
		return proto.Completion{}, ErrClosed
	}
}
