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
// called concurrently on it. Work runs where it is polled, as HermesKV's
// workers do (§4.1–4.2): the goroutine that decoded a batch of arrivals takes
// a free shard's lock and runs their turns on the spot, and so does a serving
// session for the ops of a request frame, which it submits held and runs at
// the frame's end (SubmitHeld, RunHeld). Each shard's event-loop goroutine
// runs the rest: ticks, the ops SubmitAsync and the blocking API queue, and
// whatever found the engine held (Shard.kick, Shard.loop). Installs queue
// with the arrivals and run in their order, wherever those run. Which shard a
// message belongs to, what an m-update installs where, the view log, the
// staggered roll of node-wide views, epoch gossip and how an engine's sends
// are staged into batches are internal/shardhost's — the code the simulator
// runs too; one control-plane goroutine per node steps it
// (ShardedNode.control), and every burst of turns ends by flushing its
// engine's stager (Shard.handOff). Local linearizable reads take the HermesKV
// fast path (§4.1): gated by core.ReadGate they consult the shared kvs.Store
// directly on the caller's goroutine, and are only submitted when the key is
// not Valid, the gate is shut (view installation in flight,
// non-serving replica) or NoLSC mode demands the §8 speculative path.
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
// ShardedNode. It owns no transport-facing dispatch: the node routes arrivals
// to it (deliver) and runs them where they arrive (kick), and its outgoing
// messages leave through its shardhost.Egress, the engine's Env.
//
// The engine lock decides who runs the engine's turns: the transport pump
// delivering a batch of arrivals or the serving session ending a request
// frame, when the lock is free (kick), or the shard's event-loop goroutine
// (loop), which keeps the ticks, the ops SubmitAsync queues, what found the
// engine held and the stop. Installs travel on the inbox (installMsg), so
// they run in order with the arrivals around them, on whichever goroutine
// holds the engine. Whoever holds the lock re-checks the queues after
// releasing it and rings the loop's bell if work arrived meanwhile (release),
// so a deliverer or session that finds the lock taken leaves its arrivals or
// ops to the holder.
type Shard struct {
	id     proto.NodeID
	sn     *ShardedNode
	h      *core.Hermes
	out    *shardhost.Egress
	ops    chan submitted
	msgs   chan env
	bell   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	nextOp atomic.Uint64
	// updates counts submitted update ops (writes, CAS, FAA); together with
	// the read counters it is the live load signal the roll orders shards
	// by.
	updates atomic.Uint64

	// engine is the engine lock. Its holder alone runs turns and touches h's
	// state, out, pending, win and untimed.
	engine sync.Mutex

	// pending holds the completion callback of every op the engine has been
	// handed and not yet completed.
	pending map[uint64]func(proto.Completion)

	// win is the burst window the holder drains the queues into.
	win burstWin

	// untimed is set while the loop's ticker is stopped: the engine was idle
	// and the egress held nothing. A holder whose turns arm something rings
	// the bell so the loop restarts it.
	untimed bool

	start time.Time
}

// burstWindow bounds the queued messages and ops one window of a burst takes
// (see Shard.burst). Fixed, so the window's arrays live on the Shard and a
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

// submitted is one client op on its way to the engine, carrying the callback
// its completion goes to.
type submitted struct {
	op   proto.ClientOp
	done func(proto.Completion)
}

// nodeEnv is the Shard's clock and completion sink, the shardhost.Base of
// its egress. Only the holder of the engine lock invokes it.
type nodeEnv struct{ n *Shard }

func (e nodeEnv) Now() time.Duration { return time.Since(e.n.start) }
func (e nodeEnv) Complete(c proto.Completion) {
	// An OpID with no entry is a no-op. done runs here, on whichever
	// goroutine runs the turn, so it must not block — the contract
	// SubmitAsync documents.
	if done := e.n.pending[c.OpID]; done != nil {
		delete(e.n.pending, c.OpID)
		done(c)
	}
}

// newShard builds and starts shard idx of node sn, ticking every tick.
func newShard(cfg ShardedConfig, sn *ShardedNode, idx int, tick time.Duration) *Shard {
	n := &Shard{
		id:      cfg.ID,
		sn:      sn,
		ops:     make(chan submitted, 1024),
		msgs:    make(chan env, 8192),
		bell:    make(chan struct{}, 1),
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
	go n.loop(tick)
	return n
}

// deliver queues an arrived protocol message; the dispatch that called it
// runs it (kick). The inbox almost always has room, so the send is tried on
// its own first: a lone non-blocking send costs a fraction of a two-way
// select. A full inbox is the event loop's to drain, so the bell rings before
// the wait for room.
func (n *Shard) deliver(from proto.NodeID, msg any) {
	e := env{from: from, msg: msg}
	select {
	case n.msgs <- e:
		return
	default:
	}
	n.ring()
	select {
	case n.msgs <- e:
	case <-n.stop:
		// Dropped on shutdown: spend the frame references wings decode
		// retained for the message's values, like any other drop path.
		core.ReleaseMsgOwners(msg)
	}
}

// kick runs what is queued — arrivals and submitted ops — on the calling
// goroutine as one burst, when nobody holds the engine; when someone does,
// that holder passes it on (release). The caller is a transport pump inside
// dispatch, or a serving session at the end of a request frame (RunHeld).
// HermesKV's workers run a request where they poll it (paper §4.1–4.2); so
// does this, and neither an arrival nor a frame's ops cost an event-loop
// wake-up.
func (n *Shard) kick() {
	if len(n.msgs)+len(n.ops) == 0 || !n.engine.TryLock() {
		return
	}
	armed := false
	if n.stopped() {
		n.discard()
	} else {
		n.burst(len(n.ops))
		n.handOff(false)
		armed = n.untimed && !n.idle()
	}
	n.release(armed)
}

// release unlocks the engine and passes on what was queued while it was held
// — by deliverers and sessions whose TryLock failed, or by SubmitAsync — by
// ringing the loop's bell; ring asks for the bell regardless (a turn armed a
// timer the stopped ticker would miss). Once the shard has stopped there is
// no loop to ring, so the releaser discards what is queued itself, for as
// long as it can take the lock back; a holder that beat it to the lock
// re-checks in turn. A deliverer or session queues before it tries the lock
// and a holder looks after it unlocks, so one of the two always sees the
// arrival or op.
func (n *Shard) release(ring bool) {
	for {
		n.engine.Unlock()
		if !ring && len(n.msgs)+len(n.ops) == 0 {
			return
		}
		if !n.stopped() {
			n.ring()
			return
		}
		if !n.engine.TryLock() {
			return
		}
		n.discard()
		ring = false
	}
}

// ring wakes the event loop, if it is not already due to wake.
func (n *Shard) ring() {
	select {
	case n.bell <- struct{}{}:
	default:
	}
}

// stopped reports whether the stop signal is up.
func (n *Shard) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// idle reports whether the engine needs no tick: nothing armed, and nothing
// held in the egress for the tick's FlushAll.
func (n *Shard) idle() bool { return n.h.Idle() && !n.out.Holding() }

// loop is the shard's event loop. It sleeps until its bell rings, its ticker
// fires or the stop signal goes up, takes the engine lock, and runs a tick's
// turn if the ticker woke it, then one burst of the queued messages and ops,
// and ends with the hand-off: everything staged leaves, VALs waiting for
// company too after a tick (handOff). Arrivals mostly run on the pumps that
// deliver them and a served frame's ops on its session (kick); the loop takes
// what found the engine held, and the ops SubmitAsync queues. It stops its
// ticker while the engine is idle and the egress holds nothing, and restarts
// it when a turn arms a timer again.
func (n *Shard) loop(every time.Duration) {
	defer n.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		tick := false
		select {
		case <-n.stop:
			n.engine.Lock()
			n.discard()
			n.release(false)
			return
		case <-n.bell:
		case <-ticker.C:
			tick = true
		}
		n.engine.Lock()
		if tick {
			n.h.Tick()
		}
		n.burst(len(n.ops))
		n.handOff(tick)
		if idle := n.idle(); idle != n.untimed {
			n.untimed = idle
			if idle {
				ticker.Stop()
			} else {
				ticker.Reset(every)
			}
		}
		n.release(false)
	}
}

// burst is a burst machine's turns in the manner of the paper's Wings
// workers (§4.2): everything that was queued when it starts — the messages,
// and the first queuedOps ops of the ops queue — runs one engine turn each.
// Batching is opportunistic: a burst is what was queued, never waited for,
// and that bound is also what keeps the tick and the stop reachable under a
// producer that never lets the inbox run dry. The caller sends what
// the turns staged when it returns (handOff).
//
// A burst runs in windows of at most burstWindow entries. Each window is
// received in full, then the keys its turns will touch are prefetched in one
// pass (MICA's batched lookups), and only then do its turns run, messages
// then ops, each in arrival order: the store misses of a window's keys
// overlap instead of queueing one turn at a time behind each other. Only the
// engine's holder receives from the queues, so as many receives as len
// reported find an entry; they are non-blocking all the same, since a
// receive must never wait under the engine lock.
func (n *Shard) burst(queuedOps int) {
	queuedMsgs := len(n.msgs)
	w := &n.win
	for {
		for ; queuedMsgs > 0 && !w.full(); queuedMsgs-- {
			select {
			case e := <-n.msgs:
				w.msgs[w.nm] = e
				w.nm++
			default:
			}
		}
		for ; queuedOps > 0 && !w.full(); queuedOps-- {
			select {
			case s := <-n.ops:
				w.ops[w.no] = s
				w.no++
			default:
			}
		}
		if w.nm+w.no == 0 {
			return
		}
		n.runWindow()
	}
}

// handOff ends a burst: it flushes the egress — every stage when all is set,
// else the ones not holding VALs alone (shardhost.Egress) — and adds what
// left to the node's counters. Transport.Send does not block and does not
// keep what it is given, so the flush runs under the engine lock.
func (n *Shard) handOff(all bool) {
	flush := n.out.Flush
	if all {
		flush = n.out.FlushAll
	}
	if batches, coalesced, singles := flush(); batches+singles > 0 {
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
		if im, ok := w.msgs[i].msg.(installMsg); ok {
			n.install(im)
		} else {
			n.h.Deliver(w.msgs[i].from, w.msgs[i].msg)
		}
		w.msgs[i] = env{} // the window must not keep a turn's message alive
	}
	for i := range w.ops[:w.no] {
		n.accept(w.ops[i])
		w.ops[i] = submitted{}
	}
	w.nm, w.no = 0, 0
}

// accept runs one submitted op's turn.
func (n *Shard) accept(s submitted) {
	// Recorded before Submit: a local read completes within the call.
	n.pending[s.op.ID] = s.done
	n.h.Submit(s.op)
}

// discard is what holds the engine once the stop signal is up, instead of
// turns: nothing completes an op once the loop is gone, so it fails the ops
// the engine holds and the queued ones and releases the frame references the
// queued messages carry.
func (n *Shard) discard() {
	for id, done := range n.pending {
		delete(n.pending, id)
		done(proto.Completion{OpID: id, Status: proto.NotOperational})
	}
	n.failQueued()
	for {
		select {
		case e := <-n.msgs:
			core.ReleaseMsgOwners(e.msg)
		default:
			return
		}
	}
}

// failQueued fails every op still in the queue. Only for after the stop
// signal: discard calls it, and so does a submitter whose enqueue may have
// landed behind that.
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
// transition completes, or the shard stops. The lock-free read gate is shut
// before the m-update enters the event loop, so fast-path reads fall back to
// the Submit path for the entire transition window; OnViewChange republishes
// the gate under the new epoch.
func (n *Shard) installView(v proto.View) {
	n.h.ReadGate().Shut()
	done := make(chan struct{})
	n.queueInstall(installMsg{v: v, done: done})
	select {
	case <-done:
	case <-n.stop:
	}
}

// installAsync is installView without the completion wait: the gate shuts
// immediately and the m-update is queued behind the shard's arrivals. Used
// when the caller is a transport pump that must not block on a busy shard
// (OnViewChange republishes the gate when it runs — including for duplicate
// or stale epochs, so a redelivered MUpdate cannot wedge the gate shut).
func (n *Shard) installAsync(v proto.View) {
	n.h.ReadGate().Shut()
	n.queueInstall(installMsg{v: v})
}

// installMsg is an m-update on its way to the engine. It is queued on the
// inbox like an arrival, so it keeps its place among them: a peer's messages
// sent before its MUpdate still run under the old epoch, and those sent
// after it under the new one, whichever goroutine runs them.
type installMsg struct {
	v    proto.View
	done chan struct{} // closed once installed; nil if nobody waits
}

// queueInstall puts m on the inbox and rings the loop: the goroutine queueing
// it need not be a transport pump that kicks the shard afterwards.
func (n *Shard) queueInstall(m installMsg) {
	n.deliver(n.id, m)
	n.ring()
}

// install is an install's turn. The VALs the egress holds leave first, under
// the epoch they were sent in; held across the transition they would reach
// peers that had moved on, and be dropped as stale.
func (n *Shard) install(m installMsg) {
	n.handOff(true)
	n.h.OnViewChange(m.v)
	if m.done != nil {
		close(m.done)
	}
}

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

// submit assigns op its ID and queues it together with the callback its
// completion goes to, then rings the event loop's bell — unless held, when the
// caller runs the queue itself (kick) once it has queued the rest of its
// batch. A submitter that finds the queue full rings before it waits: only a
// holder of the engine drains the queue, and a held submitter has no other
// ring coming. An error means done will never run; nil means it runs exactly
// once.
func (n *Shard) submit(ctx context.Context, op proto.ClientOp, done func(proto.Completion), held bool) error {
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
		n.ring()
		select {
		case n.ops <- s:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stop:
			return ErrClosed
		}
	}
	if !held {
		n.ring()
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

func (n *Shard) do(ctx context.Context, op proto.ClientOp) (proto.Completion, error) {
	sink := opSinks.Get().(*opSink)
	if err := n.submit(ctx, op, sink.done, false); err != nil {
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
