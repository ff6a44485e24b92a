package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/shardhost"
)

// ShardedNode is a live Hermes replica: the multi-worker protocol engine of
// HermesKV (paper §4.1), one node hosting W independent core.Hermes state
// machines, each with its own engine lock (Shard), kvs.Store segment and
// timers, each owning the keyspace partition proto.ShardOf selects.
// Writes and RMWs to keys on different shards commit fully in parallel —
// there is no cross-shard serialization point — and linearizable local reads
// are served lock-free from the owning shard's store on the caller's
// goroutine. A single-engine node is the Shards=1 configuration of this type.
//
// The node is the live driver of internal/shardhost, which owns everything
// deterministic about hosting W engines: routing an arrival to the shard
// owning its key, m-update addressing, the view log, the staggered roll of
// node-wide views, epoch gossip, each engine's burst runner
// (shardhost.Runner) and egress stager (shardhost.Egress) — the same code the
// simulator runs. What this type adds is what only a live runtime has: the
// queues in front of each engine, the goroutines that run its turns — the
// transport's, for arrivals that find the engine free, a serving session's,
// for the ops of its request frame (RunHeld), a blocking caller's, for its
// own op, and the control goroutine's for the rest — wall-clock time, one
// mutex serializing the host's control-plane state, and the one control
// goroutine per node (control), which steps the host, ticks the shards and
// runs the work that found an engine held.
//
// On the wire every protocol message is wrapped in a proto.ShardMsg so the
// receiving node can route it to the peer shard that owns the key; shard s
// of one node only ever converses with shard s of the others. All nodes of
// a cluster must therefore be configured with the same shard count.
//
// Small messages (INVs, ACKs, VALs) are not sent one by one: each engine's
// Egress stages what one burst of its turns sent, per peer, and whoever ran
// the burst flushes it at its end (shardhost.Runner.HandOff), each stage as one
// proto.ShardBatch — except a stage of VALs alone, which waits for the
// shard's next INV or ACK to that peer, or the end of the next tick.
// Transport.Send never blocks, so a burst can afford to; the transport's
// per-peer link is the only egress queue, and there the stages of one burst —
// and of the other shards' concurrent bursts — meet in one frame and one
// write, cutting the per-write frame rate that W would otherwise multiply.
// Arriving batches fan back out to owner shards in dispatch, which runs them.
//
// Membership epochs are per shard. A node-wide view a membership agent
// decides (OnView), or one arriving as a wire proto.MUpdate or in a fetched
// view log, rolls across the shards one at a time, coolest first, so at most
// one read gate is shut at any moment; a view that fences the node installs
// on every shard at once. InstallShardView — or a wire proto.MUpdate
// addressing one shard — advances a single shard's epoch, and InstallView
// installs on every shard directly. Either way the §3.4 fault-tolerance
// machinery — epoch filtering, write replays, shadow-replica catch-up —
// operates per shard over that shard's slice of the keyspace, so one shard's
// reconfiguration never pauses the others.
type ShardedNode struct {
	id     proto.NodeID
	w      int
	tr     Transport
	shards []*Shard
	start  time.Time

	// drv lends the host this node's shards and transport. Data-plane
	// routing (shardhost.Route) goes through it with no lock.
	drv shardhost.Driver
	// host is the control-plane state (view log, roll, gossip, counters). It
	// is single-threaded by design; ctlMu serializes the transport pumps, the
	// control goroutine and API callers that reach it (withHost). after
	// collects the installs the driver queued during one host call; they run
	// once ctlMu is released.
	ctlMu sync.Mutex
	host  *shardhost.Host
	after []func()

	// The control goroutine (control): wake is poked when a host call leaves
	// a view rolling, a shard hands it work or a shard turns timed. stop
	// (closed once, by Close) stops it and every shard; ctlDone closes when
	// the goroutine has returned.
	wake, stop, ctlDone chan struct{}
	stopOnce            sync.Once
}

// ShardedConfig parameterizes a live replica. Shards is the worker count W
// (values < 1 become 1, so the zero value is a plain single-engine node).
type ShardedConfig struct {
	ID     proto.NodeID
	View   proto.View
	MLT    time.Duration // message-loss timeout (default 20ms)
	NoLSC  bool          // §8 clock-free reads (see core.Config)
	Shards int
}

// tickEvery is the protocol timer granularity: the Go runtime's idle timer
// resolution. It also bounds how long a VAL with no INV or ACK to ride waits
// in the egress (shardhost.Egress), so how long an idle follower sees a
// committed key as Invalid. One clock ticks every shard of a node; a shard
// whose engine has nothing armed and whose egress holds nothing is not
// ticked, and while no shard needs a tick the clock stops.
const tickEvery = time.Millisecond

// DefaultShards picks a worker count for deployments that do not choose one:
// one shard per CPU, capped — the paper's testbed runs ~20 worker threads
// per node, but beyond the core count extra shards only add scheduling
// overhead.
func DefaultShards() int {
	w := runtime.NumCPU()
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CoalesceStats reports the egress stages' work, counted at each flush:
// batches sent, messages carried inside them, messages that left alone. The
// fourth result is always 0: nothing is queued here, so nothing is shed here —
// a transport that queues counts its own (wings.Stats.Shed).
func (sn *ShardedNode) CoalesceStats() (batches, coalesced, singles, dropped uint64) {
	for _, s := range sn.shards {
		b, c, n := s.r.Flushed()
		batches, coalesced, singles = batches+b, coalesced+c, singles+n
	}
	return batches, coalesced, singles, 0
}

// NewShardedNode builds and starts a live Hermes replica with cfg.Shards
// engines on tr.
func NewShardedNode(cfg ShardedConfig, tr Transport) *ShardedNode {
	return newShardedNode(cfg, tr, tickEvery)
}

// newShardedNode is NewShardedNode with its clock ticking every tick (a test
// that needs a silent clock passes an hour).
func newShardedNode(cfg ShardedConfig, tr Transport, tick time.Duration) *ShardedNode {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MLT <= 0 {
		cfg.MLT = 20 * time.Millisecond
	}
	sn := &ShardedNode{
		id:      cfg.ID,
		w:       cfg.Shards,
		tr:      tr,
		start:   time.Now(),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		ctlDone: make(chan struct{}),
	}
	for i := 0; i < sn.w; i++ {
		sn.shards = append(sn.shards, newShard(cfg, sn, i))
	}
	sn.drv = hostDriver{sn}
	sn.host = shardhost.New(cfg.ID, sn.w, cfg.View, cfg.MLT, sn.drv)
	sn.host.Stagger = rollStagger
	go sn.control(shardhost.GossipPeriod(cfg.MLT), tick)
	tr.SetDeliver(cfg.ID, sn.dispatch)
	return sn
}

// rollStagger spaces a live roll's installs. Each install is also held back
// until the previous one has landed, so this is only the floor between them,
// and the period at which the control goroutine polls for that while a view
// rolls.
const rollStagger = time.Millisecond

// control is the node's control goroutine: its control-plane clock, the
// clock of its shards and their fallback runner. It steps the host when a
// view is accepted, every rollStagger while one rolls, and every gossip
// period (the host announces the node's epochs when one has passed); it
// ticks every timed shard every tick, stopping the clock while no shard is
// timed; and it runs the work a holder handed over (Shard.fallback). It never
// waits for an engine: a shard whose engine is held is left to the holder.
func (sn *ShardedNode) control(gossipEvery, tick time.Duration) {
	defer close(sn.ctlDone)
	gossip := time.NewTicker(gossipEvery)
	defer gossip.Stop()
	ticks := time.After(tick) // every shard starts timed
	for {
		var roll <-chan time.Time
		if sn.runHost(func(h *shardhost.Host) { h.Step(time.Since(sn.start)) }) {
			roll = time.After(rollStagger)
		}
		ticked := false
		select {
		case <-sn.stop:
			return
		case <-ticks:
			ticked, ticks = true, nil
		case <-sn.wake:
		case <-roll:
		case <-gossip.C:
		}
		timed := false
		for _, s := range sn.shards {
			s.fallback(ticked)
			timed = timed || !s.untimed.Load()
		}
		if !timed {
			ticks = nil
		} else if ticks == nil {
			ticks = time.After(tick)
		}
	}
}

// handOver gives s's queued work to the control goroutine.
func (sn *ShardedNode) handOver(s *Shard) {
	s.handed.Store(true)
	poke(sn.wake)
}

// poke wakes the control goroutine through ch, if it is not already due to
// wake.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// stopped reports whether Close has begun.
func (sn *ShardedNode) stopped() bool {
	select {
	case <-sn.stop:
		return true
	default:
		return false
	}
}

// dispatch is the transport's arrival callback. Data-plane traffic is routed
// statelessly — no lock, no allocation — onto the owner shards' inboxes, a
// batch's messages all queued first; then each shard with work queued runs
// it as one burst right here, on the transport's goroutine, if its engine
// lock is free (RunHeld). Only the node-level membership messages Route
// declines take ctlMu and reach the host's control plane.
func (sn *ShardedNode) dispatch(from proto.NodeID, msg any) {
	if shardhost.Route(sn.w, sn.drv, from, msg) {
		sn.RunHeld()
		return
	}
	sn.withHost(func(h *shardhost.Host) { h.Dispatch(from, msg, time.Since(sn.start)) })
}

// withHost runs fn on the control-plane host (runHost) and wakes the
// control goroutine if a view is left rolling — fn may have accepted one.
func (sn *ShardedNode) withHost(fn func(h *shardhost.Host)) {
	if sn.runHost(fn) {
		poke(sn.wake)
	}
}

// runHost runs fn on the host under ctlMu, then performs the effects the
// driver queued during it with the mutex released: an install queues on a
// shard's inbox and may run the shard's turns, and a mutex must not be held
// across that. It reports whether a view is rolling.
func (sn *ShardedNode) runHost(fn func(h *shardhost.Host)) (rolling bool) {
	sn.ctlMu.Lock()
	fn(sn.host)
	rolling = sn.host.Rolling()
	after := sn.after
	sn.after = nil
	sn.ctlMu.Unlock()
	for _, f := range after {
		f()
	}
	return rolling
}

// hostDriver lends the host this node's shards and transport.
type hostDriver struct{ sn *ShardedNode }

func (d hostDriver) Deliver(shard int, from proto.NodeID, msg any) {
	d.sn.shards[shard].deliver(from, msg)
}

// Install queues an asynchronous install on one shard (called under ctlMu;
// runHost performs it). Asynchronous because the caller may be a transport
// pump or the control goroutine, neither of which may wait for one busy
// shard's engine — that would re-couple the shards the per-shard epochs
// decouple. The roll waits for the shard's gate epoch to move before it hands
// out the next install.
func (d hostDriver) Install(shard int, v proto.View) {
	s := d.sn.shards[shard]
	d.sn.after = append(d.sn.after, func() { s.queueInstall(shardhost.InstallMsg{View: v}) })
}

// Epoch reads the shard's atomic read-gate word; safe mid-traffic.
func (d hostDriver) Epoch(shard int) uint32 { return d.sn.shards[shard].h.ReadGate().Epoch() }

// Load is the shard's total reads served (fast path + submitted) plus update
// ops submitted; safe mid-traffic.
func (d hostDriver) Load(shard int) uint64 {
	s := d.sn.shards[shard]
	reads, _, _ := s.h.ReadStats()
	return reads + s.updates.Load()
}

// Send is called under ctlMu, on a transport read pump or the control
// goroutine. Transport.Send never blocks, so neither the data traffic behind
// a pump nor the other callers of the host wait on the peer.
func (d hostDriver) Send(to proto.NodeID, msg any) { d.sn.tr.Send(d.sn.id, to, msg) }

// OnView is the membership agent's entry (membership.Config.OnView): the
// decided view is retained in the node's view log — so this node can serve
// it to a laggard even if it turns out a redelivery or is superseded before
// rolling — and handed to the roll, which the control goroutine performs.
func (sn *ShardedNode) OnView(v proto.View) {
	sn.withHost(func(h *shardhost.Host) { h.Install(proto.MUpdate{Shard: proto.AllShards, View: v}) })
}

// FastForward asks peer for the epochs this node's most lagging shard has
// missed; the answer replays asynchronously through dispatch. Callers are
// whoever detects the lag: a rejoin path or a harness — the epoch-gossip
// observer calls the host's directly.
func (sn *ShardedNode) FastForward(peer proto.NodeID) {
	sn.withHost(func(h *shardhost.Host) { h.FastForward(peer) })
}

// HostStats snapshots the host's control-plane counters (roll, view-log
// fetches served and applied, gossip); safe mid-traffic.
func (sn *ShardedNode) HostStats() (st shardhost.Stats) {
	sn.withHost(func(h *shardhost.Host) { st = h.Stats() })
	return st
}

// recordView retains an m-update this node installs directly in the view
// log, so it can serve the epoch to a laggard.
func (sn *ShardedNode) recordView(m proto.MUpdate) {
	sn.withHost(func(h *shardhost.Host) { h.Record(m) })
}

// ID returns the node's ID.
func (sn *ShardedNode) ID() proto.NodeID { return sn.id }

// Shards returns the worker count W.
func (sn *ShardedNode) Shards() int { return sn.w }

// Shard exposes shard i's engine (metrics, tests).
func (sn *ShardedNode) Shard(i int) *Shard { return sn.shards[i] }

// shardFor returns the engine owning key.
func (sn *ShardedNode) shardFor(key proto.Key) *Shard {
	return sn.shards[proto.ShardOf(key, sn.w)]
}

// Read performs a linearizable read. When the owning shard's read gate is
// open and the key is Valid, the read is served entirely on the caller's
// goroutine — one atomic gate load and one lock-free store lookup, never
// touching the engine (the HermesKV fast path, §4.1). Otherwise — non-Valid
// key, NoLSC mode (the fast path must not bypass the §8 membership proof), an
// in-flight view installation, or a non-serving replica — the read is
// submitted, runs on the caller if the engine is free, and stalls until the
// key validates.
func (sn *ShardedNode) Read(ctx context.Context, key proto.Key) (proto.Value, error) {
	s := sn.shardFor(key)
	if v, ok := s.h.ReadLocal(key); ok {
		return v, nil
	}
	c, err := s.do(ctx, proto.ClientOp{Kind: proto.OpRead, Key: key})
	if err != nil {
		return nil, err
	}
	return c.Value, nil
}

// ReadLocal attempts the lock-free local-read fast path on the caller's
// goroutine: one atomic gate load and one store lookup against the owning
// shard's segment, never touching the engine. ok=false means the caller
// must fall back to a submitted read (SubmitAsync or Read) — the key is not
// Valid, the gate is shut, or NoLSC mode forbids the fast path. The client
// serving layer calls this on session goroutines so wire reads keep the §4.1
// fast path end to end.
func (sn *ShardedNode) ReadLocal(key proto.Key) (proto.Value, bool) {
	return sn.shardFor(key).h.ReadLocal(key)
}

// ReadLocalRetained is ReadLocal minus the defensive copy: a non-nil owner
// pins the pooled frame buffer the value aliases, and the caller must
// Release it after the bytes' last use (the serving layer holds the pin
// across its response-encode flush). See core.Hermes.ReadLocalRetained.
func (sn *ShardedNode) ReadLocalRetained(key proto.Key) (proto.Value, *refbuf.Buf, bool) {
	return sn.shardFor(key).h.ReadLocalRetained(key)
}

// ReadLocalInto is the fast path's read-into door: a value of at most
// kvs.InlineCap bytes is copied into the caller's buf (n bytes, v nil), with
// nothing pinned and nothing allocated; a larger one comes back as
// ReadLocalRetained returns it. See core.Hermes.ReadLocalInto.
func (sn *ShardedNode) ReadLocalInto(key proto.Key, buf *[kvs.InlineCap]byte) (n int, v proto.Value, owner *refbuf.Buf, ok bool) {
	return sn.shardFor(key).h.ReadLocalInto(key, buf)
}

// Prefetch warms the store index entries and slots of keys, each in its
// owning shard's store, ahead of the reads and submits that will act on them:
// the serving layer calls it with the keys of a request frame before it
// handles the frame's first request. It changes no state and allocates
// nothing, and like kvs.Store.Prefetch it leaves a lone key alone.
func (sn *ShardedNode) Prefetch(keys []proto.Key) {
	if len(keys) < 2 {
		return
	}
	var slots [shardhost.BurstWindow]*kvs.Slot
	for len(keys) > 0 {
		n := min(len(keys), shardhost.BurstWindow)
		for i, k := range keys[:n] {
			slots[i] = sn.shardFor(k).h.Store().Lookup(k)
		}
		kvs.Touch(slots[:n])
		keys = keys[n:]
	}
}

// SubmitAsync queues op on its owning shard, hands it to the node's control
// goroutine to run, and invokes fn with its completion instead of blocking
// the caller — the pipelined path: one goroutine keeps hundreds of ops in
// flight without a goroutine per op. fn runs on whichever goroutine runs the
// turn that completes the op — the control goroutine, a transport goroutine
// delivering the last ACK, or one that runs queued work at its own batch's
// end (RunHeld) — and MUST NOT block (enqueue and return; a blocking fn
// stalls the whole shard, and the peer's stream behind it).
// op.ID is assigned here; the completion's OpID echoes it. If the shard's ops
// queue is full, the caller runs a burst of the shard's work itself once the
// engine is free (bounded backpressure on the submitting session, never on
// other sessions or shards).
//
// An error means fn will never run; nil means it runs exactly once. Every
// call after Close has returned gets ErrClosed, and an op in flight when the
// node closes completes with proto.NotOperational, so a session's
// outstanding count drains. A call that overlaps Close itself gets one or
// the other — and in that one case fn may run on the caller's goroutine,
// before SubmitAsync returns.
//
// op.Value is handed over: for an update it becomes the stored and
// replicated value without a copy, so the caller must not mutate it after
// the call (the serving layer passes the private copy its request decode
// made). Callers that keep their buffers use Write/CAS/FAA, which clone.
func (sn *ShardedNode) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	return sn.shardFor(op.Key).submit(context.Background(), op, fn, false)
}

// SubmitHeld is SubmitAsync without the hand-over: op waits on its shard's
// queue for the caller's RunHeld, so a batch of ops — the serving layer's
// request frame — runs in one burst per shard on the caller's goroutine
// instead of waking the control goroutine. fn's contract and the error
// semantics are SubmitAsync's. A full ops queue makes the caller run a burst
// of the shard's work itself, so a batch larger than the queue still
// completes.
func (sn *ShardedNode) SubmitHeld(op proto.ClientOp, fn func(proto.Completion)) error {
	return sn.shardFor(op.Key).submit(context.Background(), op, fn, true)
}

// RunHeld runs what every shard has queued — the ops SubmitHeld left there,
// and any arrivals beside them — on the calling goroutine, one burst per
// shard whose engine is free; a shard whose engine is held is left to its
// holder, which hands it to the control goroutine on release. It never waits.
// dispatch ends with it too, for the arrivals it queued.
func (sn *ShardedNode) RunHeld() {
	for _, s := range sn.shards {
		s.kick()
	}
}

// ReadStats sums the shard engines' read-side counters (total reads,
// fast-path hits, fast-path fallbacks); safe to call concurrently with
// traffic.
func (sn *ShardedNode) ReadStats() (reads, fastHits, fastMisses uint64) {
	for _, s := range sn.shards {
		r, h, m := s.h.ReadStats()
		reads += r
		fastHits += h
		fastMisses += m
	}
	return reads, fastHits, fastMisses
}

// Write performs a linearizable write. val is copied here, at the blocking
// API's boundary — the engine stores what it is submitted as is — so the
// caller may reuse its buffer as soon as Write returns, cancelled or not.
func (sn *ShardedNode) Write(ctx context.Context, key proto.Key, val proto.Value) error {
	_, err := sn.shardFor(key).do(ctx, proto.ClientOp{Kind: proto.OpWrite, Key: key, Value: val.Clone()})
	return err
}

// CAS performs a compare-and-swap; swapped=false with err==nil means the
// comparand mismatched and observed holds the current value. val is copied
// like Write's.
func (sn *ShardedNode) CAS(ctx context.Context, key proto.Key, expect, val proto.Value) (swapped bool, observed proto.Value, err error) {
	c, err := sn.shardFor(key).do(ctx, proto.ClientOp{Kind: proto.OpCAS, Key: key, Expected: expect, Value: val.Clone()})
	if err != nil {
		return false, nil, err
	}
	switch c.Status {
	case proto.OK:
		return true, nil, nil
	case proto.CASFailed:
		return false, c.Value, nil
	case proto.Aborted:
		return false, nil, ErrAborted
	default:
		return false, nil, fmt.Errorf("cluster: cas: %v", c.Status)
	}
}

// FAA atomically adds delta and returns the prior value. ErrAborted is
// returned when the RMW lost to a concurrent update; callers retry.
func (sn *ShardedNode) FAA(ctx context.Context, key proto.Key, delta int64) (int64, error) {
	c, err := sn.shardFor(key).do(ctx, proto.ClientOp{Kind: proto.OpFAA, Key: key, Value: proto.EncodeInt64(delta)})
	if err != nil {
		return 0, err
	}
	if c.Status == proto.Aborted {
		return 0, ErrAborted
	}
	return proto.DecodeInt64(c.Value), nil
}

// InstallView fans the m-update out to every shard — the node-wide install a
// membership agent decides once per node — and blocks until every shard's
// transition completes. Each shard runs the full §3.4 transition
// independently over its own keyspace partition: its read gate shuts, its
// in-flight epoch-tagged messages are filtered, its replays run.
func (sn *ShardedNode) InstallView(v proto.View) {
	sn.recordView(proto.MUpdate{Shard: proto.AllShards, View: v})
	for _, s := range sn.shards {
		s.installView(v)
	}
}

// InstallShardView installs an m-update on one shard only, leaving every
// other shard's epoch, read gate and in-flight traffic untouched. This is
// what localizes reconfiguration: a replay storm following shard i's install
// cannot stall reads or writes on shards j≠i (TestStaggeredGateIsolation).
// Blocks until the target shard's engine has completed the transition.
func (sn *ShardedNode) InstallShardView(shard int, v proto.View) {
	sn.recordView(proto.MUpdate{Shard: uint16(shard), View: v})
	sn.shards[shard].installView(v)
}

// ShardLoads reports each shard's live client-op load — total reads served
// (fast path + submitted) plus update ops submitted since construction;
// safe mid-traffic. The roll orders installs by deltas of these.
func (sn *ShardedNode) ShardLoads() []uint64 {
	out := make([]uint64, sn.w)
	for i := range out {
		out[i] = sn.drv.Load(i)
	}
	return out
}

// ShardEpochs reports each shard's currently published membership epoch
// (read from the shards' atomic read-gate words; safe mid-traffic). With
// per-shard installs the epochs may legitimately differ across shards of one
// node.
func (sn *ShardedNode) ShardEpochs() []uint32 { return sn.host.Epochs() }

// Close stops the control goroutine and all shard engines: an op in flight
// completes with proto.NotOperational, and queued arrivals are dropped (the
// transport is the caller's to close). A roll still under way is abandoned.
func (sn *ShardedNode) Close() {
	sn.stopOnce.Do(func() {
		close(sn.stop)
		<-sn.ctlDone
		for _, s := range sn.shards {
			s.engine.Lock()
			s.r.Discard(s.msgs, s.ops)
			s.release()
		}
	})
}

// ShardedLocal is a single-process replica group over a ChanTransport: the
// quickstart deployment and the fixture for live tests.
type ShardedLocal struct {
	Nodes []*ShardedNode
	Tr    *ChanTransport
}

// LocalConfig parameterizes NewShardedLocal.
type LocalConfig struct {
	N     int
	MLT   time.Duration
	NoLSC bool
}

// NewShardedLocal stands up an n-replica, W-shard Hermes group in-process.
func NewShardedLocal(cfg LocalConfig, shards int) *ShardedLocal {
	ids := make([]proto.NodeID, cfg.N)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	view := proto.View{Epoch: 1, Members: ids}
	tr := NewChanTransport(ids)
	l := &ShardedLocal{Tr: tr}
	for _, id := range ids {
		l.Nodes = append(l.Nodes, NewShardedNode(ShardedConfig{
			ID: id, View: view, MLT: cfg.MLT, NoLSC: cfg.NoLSC,
			Shards: shards,
		}, tr))
	}
	return l
}

// Close stops all nodes and the transport.
func (l *ShardedLocal) Close() {
	for _, n := range l.Nodes {
		n.Close()
	}
	l.Tr.Close()
}
