// Package cluster is the live runtime: it hosts the same protocol state
// machines the simulator runs, but on goroutines with real time and a
// pluggable transport — an in-process channel mesh for single-binary
// deployments and tests, or TCP via internal/transport for a real
// distributed deployment (cmd/hermes-node). This is the library surface a
// downstream user embeds: NewShardedLocal to stand up a replica group, and
// ShardedNode's Read, Write, CAS and FAA for blocking linearizable ops.
//
// Architecture: a replica (ShardedNode) hosts one protocol state machine per
// shard behind an engine lock: Submit/Deliver/Tick/OnViewChange are never
// called concurrently on it. Turns run on whoever delivers, submits or ticks,
// as HermesKV's workers run a request where they poll it (§4.1–4.2), and no
// shard has a goroutine of its own: the goroutine that decoded a batch of
// arrivals takes a free shard's lock and runs their turns on the spot, and so
// does a serving session for the ops of a request frame, which it submits
// held and runs at the frame's end (SubmitHeld, RunHeld), and a blocking
// caller for its own op. The node's one control goroutine ticks every shard
// that has a timer armed and runs what found the engine held, or what
// SubmitAsync queued (Shard.kick, Shard.fallback). Installs queue with the
// arrivals and run in their order, wherever those run. Which shard a message
// belongs to, what an m-update installs where, the view log, the staggered
// roll of node-wide views, epoch gossip, the burst windows an engine's turns
// run in (shardhost.Runner) and how its sends are staged into batches are
// internal/shardhost's — the code the simulator runs too; the control
// goroutine steps the host (ShardedNode.control), and every burst of turns
// ends by flushing its engine's stager (shardhost.Runner.HandOff). Local
// linearizable reads take the HermesKV fast path (§4.1): gated by
// core.ReadGate they consult the shared kvs.Store directly on the caller's
// goroutine, and are only submitted when the key is not Valid, the gate is
// shut (view installation in flight, non-serving replica) or NoLSC mode
// demands the §8 speculative path.
package cluster

import (
	"context"
	"errors"
	"runtime"
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
// Send never blocks: it is called from engine turns, and one that waited on
// a peer — a dial, a full socket — would stall every key its shard owns. A
// transport that must wait queues, and sheds past its bound (transport.Mesh
// queues in the peer's wings.Link; ChanTransport drops on a full inbox).
//
// The deliver callback runs engine turns: the node runs the arrivals of a
// free shard on the calling goroutine, and those turns call Send, re-entrantly
// on that goroutine, before the callback returns. An implementation must
// therefore hold no lock across the callback that Send takes, and the
// goroutine calling it stalls only the traffic queued behind it while the
// turns run.
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

type env = shardhost.Arrival

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
	case ch <- env{From: from, Msg: msg}:
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
				fn(e.From, e.Msg)
			case <-t.closed:
				return
			}
			// The rest of the burst: what was queued at wake-up, by plain
			// receives. The pump is the inbox's only consumer, so they cannot
			// block, and the bound keeps Close reachable under a full inbox.
			for queued := len(ch); queued > 0; queued-- {
				e := <-ch
				fn(e.From, e.Msg)
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
// ShardedNode — and the shardhost.Runner that runs its turns. It has no
// goroutine of its own: the node routes arrivals to its inbox (deliver),
// client ops go on its ops queue (submit), and whoever finds the engine lock
// free runs what is queued as one burst (kick): the transport pump that
// delivered arrivals, the serving session ending a request frame, a blocking
// caller waiting on its op, or the node's control goroutine, which ticks the
// engine and runs the work that found it held (fallback). Installs travel on
// the inbox (shardhost.InstallMsg), so they run in order with the arrivals
// around them, on whichever goroutine holds the engine. Whoever holds the
// lock re-checks the queues after releasing it and hands what arrived
// meanwhile to the control goroutine (release), so a deliverer or session
// that finds the lock taken leaves its work to the holder.
type Shard struct {
	sn     *ShardedNode
	h      *core.Hermes
	r      *shardhost.Runner
	ops    chan shardhost.Op
	msgs   chan env
	nextOp atomic.Uint64
	// updates counts submitted update ops (writes, CAS, FAA); together with
	// the read counters it is the live load signal the roll orders shards
	// by.
	updates atomic.Uint64

	// engine is the engine lock. Its holder alone runs turns and touches h's
	// state and r.
	engine sync.Mutex

	// untimed is set while the engine is idle and its egress holds nothing:
	// the node's clock skips the shard, and stops while every shard is
	// untimed. Written by the engine's holder.
	untimed atomic.Bool
	// handed is set when queued work was handed to the control goroutine.
	handed atomic.Bool
	// tickDue is set while the clock owes the shard a tick: the control
	// goroutine sets it before it tries the engine, and a holder that finds it
	// set runs the tick when it lets go (release).
	tickDue atomic.Bool
}

// nodeEnv is the Shard's clock, the shardhost.Base of its runner. Every op is
// submitted with a callback, which the runner calls, so no completion reaches
// Complete.
type nodeEnv struct{ start time.Time }

func (e nodeEnv) Now() time.Duration      { return time.Since(e.start) }
func (nodeEnv) Complete(proto.Completion) {}

// newShard builds shard idx of node sn.
func newShard(cfg ShardedConfig, sn *ShardedNode, idx int) *Shard {
	n := &Shard{
		sn:   sn,
		ops:  make(chan shardhost.Op, 1024),
		msgs: make(chan env, 8192),
	}
	wire := func(to proto.NodeID, msg any) { sn.tr.Send(sn.id, to, msg) }
	n.r = shardhost.NewRunner(uint16(idx), nodeEnv{start: time.Now()}, wire, core.Config{
		ID: cfg.ID, View: cfg.View.Clone(), Store: kvs.New(64), MLT: cfg.MLT, NoLSC: cfg.NoLSC,
	})
	n.h = n.r.Engine()
	return n
}

// deliver queues an arrived protocol message; the dispatch that called it
// runs it (kick).
func (n *Shard) deliver(from proto.NodeID, msg any) {
	if enqueue(n, context.Background(), n.msgs, env{From: from, Msg: msg}) != nil {
		// Dropped on shutdown: spend the frame references wings decode
		// retained for the message's values, like any other drop path.
		core.ReleaseMsgOwners(msg)
	}
}

// enqueue puts x on the shard's queue q. The queue almost always has room,
// so the send is tried on its own first: a lone non-blocking send costs a
// fraction of a select. A producer that finds the queue full does not wait
// on it: only a holder drains the queues, and the producer may be the
// goroutine a holder hands its work to (runHost's installs run on the
// control goroutine). It runs the shard's turns itself while the engine is
// free, and yields to the holder while it is not, until there is room, ctx
// is done or the node stops.
func enqueue[T any](n *Shard, ctx context.Context, q chan<- T, x T) error {
	for {
		select {
		case q <- x:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if n.sn.stopped() {
			return ErrClosed
		}
		if !n.run() {
			runtime.Gosched()
		}
	}
}

// kick runs what is queued — arrivals and submitted ops — on the calling
// goroutine as one burst, when nobody holds the engine; when someone does,
// that holder passes it on (release). HermesKV's workers run a request where
// they poll it (paper §4.1–4.2); so does this: the caller is a transport pump
// inside dispatch, a serving session at the end of a request frame
// (RunHeld), or a caller about to wait for its own op or install.
func (n *Shard) kick() {
	if len(n.msgs)+len(n.ops) > 0 {
		n.run()
	}
}

// fallback is the control goroutine's turn at the shard: a tick of the
// clock, if the shard is timed, and the work a holder handed over. It never
// waits for the engine: a held one is left to its holder, which runs the
// owed tick and hands the work back when it lets go (release).
func (n *Shard) fallback(tick bool) {
	if tick && !n.untimed.Load() {
		n.tickDue.Store(true)
	}
	if n.handed.Swap(false) || n.tickDue.Load() {
		n.run()
	}
}

// run runs the shard's turns on the calling goroutine and lets go of the
// engine, if the engine is free, and reports whether it was.
func (n *Shard) run() bool {
	if !n.engine.TryLock() {
		return false
	}
	n.turns()
	n.release()
	return true
}

// release unlocks the engine and passes on what was queued while it was held
// — by deliverers and sessions whose TryLock failed, or by SubmitAsync — by
// handing it to the control goroutine. A tick the clock owes the shard it
// runs itself, and once the node has stopped it discards what is queued, for
// as long as it can take the lock back; a holder that beat it to the lock
// re-checks in turn. A producer queues before it tries the lock and a holder
// looks after it unlocks, so one of the two always sees the work.
func (n *Shard) release() {
	for {
		n.engine.Unlock()
		due := n.tickDue.Load()
		if !due && len(n.msgs)+len(n.ops) == 0 {
			return
		}
		if !due && !n.sn.stopped() {
			n.sn.handOver(n)
			return
		}
		if !n.engine.TryLock() {
			return
		}
		n.turns()
	}
}

// turns is what a holder of the engine runs: the tick's turn the clock owes
// the shard, if any, one burst of what is queued (shardhost.Runner.Burst),
// and the hand-off, which sends every stage after a tick. A shard whose turns
// armed a timer becomes timed and wakes the control goroutine to start the
// clock. Once the node has stopped, the holder discards instead.
func (n *Shard) turns() {
	tick := n.tickDue.Swap(false)
	if n.sn.stopped() {
		n.r.Discard(n.msgs, n.ops)
		return
	}
	if tick {
		n.h.Tick()
	}
	n.r.Burst(n.msgs, n.ops)
	n.r.HandOff(tick)
	if idle := n.r.Idle(); idle != n.untimed.Load() {
		n.untimed.Store(idle)
		if !idle {
			poke(n.sn.wake)
		}
	}
}

// Hermes exposes the protocol instance (metrics, view, store).
func (n *Shard) Hermes() *core.Hermes { return n.h }

// installView delivers an m-update to the engine and blocks until its §3.4
// transition completes, or the node stops. The lock-free read gate is shut
// before the m-update is queued, so fast-path reads fall back to the Submit
// path for the entire transition window; OnViewChange republishes the gate
// under the new epoch.
func (n *Shard) installView(v proto.View) {
	done := make(chan struct{})
	n.queueInstall(shardhost.InstallMsg{View: v, Done: done})
	select {
	case <-done:
	case <-n.sn.stop:
	}
}

// queueInstall shuts the read gate, queues m on the inbox behind the shard's
// arrivals, and runs it at once if the engine is free (kick). Without Done it
// is an asynchronous install, for a caller that must not wait on a busy
// shard: a transport pump or the control goroutine (OnViewChange republishes
// the gate when it runs — including for duplicate or stale epochs, so a
// redelivered MUpdate cannot wedge the gate shut).
func (n *Shard) queueInstall(m shardhost.InstallMsg) {
	n.h.ReadGate().Shut()
	n.deliver(n.sn.id, m)
	n.kick()
}

// ErrClosed reports an operation on a stopped node.
var ErrClosed = errors.New("cluster: node closed")

// ErrAborted reports an RMW that lost to a concurrent conflicting update
// (paper §3.6); the operation had no effect and may be retried.
var ErrAborted = errors.New("cluster: rmw aborted by concurrent update")

// ErrNotOperational reports a replica without a valid membership lease.
var ErrNotOperational = errors.New("cluster: replica not operational")

// submit assigns op its ID and queues it together with the callback its
// completion goes to, then hands it to the control goroutine — unless held,
// when the caller runs the queue itself (kick) once it has queued the rest of
// its batch. A submitter that finds the queue full makes room (enqueue). An
// error means done will never run; nil means it runs exactly
// once.
func (n *Shard) submit(ctx context.Context, op proto.ClientOp, done func(proto.Completion), held bool) error {
	// Checked first: ops is buffered, so once the node has stopped a send
	// would succeed into a queue nobody reads.
	if n.sn.stopped() {
		return ErrClosed
	}
	op.ID = n.nextOp.Add(1)
	if op.Kind.IsUpdate() {
		n.updates.Add(1)
	}
	if err := enqueue(n, ctx, n.ops, shardhost.Op{Op: op, Done: done}); err != nil {
		return err
	}
	if !held {
		n.sn.handOver(n)
	}
	// The stop may have come between the check above and the enqueue, after
	// Close's sweep of the queue: whoever takes the engine now discards the
	// op instead of running it.
	if n.sn.stopped() {
		n.kick()
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
// nothing SubmitAsync does not. done runs in an engine turn and must not
// block: ch has room for one completion and done runs once per op, so a sink
// may go back to the pool only when it is provably empty — its completion
// was received, or its op was never queued.
var opSinks = sync.Pool{
	New: func() any {
		ch := make(chan proto.Completion, 1)
		return &opSink{ch: ch, done: func(c proto.Completion) { ch <- c }}
	},
}

// do submits op and runs it on the caller if the engine is free (kick), then
// waits for its completion.
func (n *Shard) do(ctx context.Context, op proto.ClientOp) (proto.Completion, error) {
	sink := opSinks.Get().(*opSink)
	if err := n.submit(ctx, op, sink.done, true); err != nil {
		opSinks.Put(sink)
		return proto.Completion{}, err
	}
	n.kick()
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
	case <-n.sn.stop:
		// NOT pooled either: Close fails the op on its way out.
		return proto.Completion{}, ErrClosed
	}
}
