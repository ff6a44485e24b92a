package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/shardhost"
)

// ShardedNode is a live Hermes replica: the multi-worker protocol engine of
// HermesKV (paper §4.1), one node hosting W independent core.Hermes state
// machines, each with its own event-loop goroutine (Shard), kvs.Store segment
// and timers, each owning the keyspace partition proto.ShardOf selects.
// Writes and RMWs to keys on different shards commit fully in parallel —
// there is no cross-shard serialization point — and linearizable local reads
// are served lock-free from the owning shard's store on the caller's
// goroutine. A single-engine node is the Shards=1 configuration of this type.
//
// The node is the live driver of internal/shardhost, which owns everything
// deterministic about hosting W engines: routing an arrival to the shard
// owning its key, m-update addressing, the view log, the staggered roll of
// node-wide views and epoch gossip — the same code the simulator runs. What
// this type adds is what only a live runtime has: inbox goroutines, per-shard
// egress stages, wall-clock time, one mutex serializing the host's
// control-plane state and one control-plane goroutine stepping it (control).
//
// On the wire every protocol message is wrapped in a proto.ShardMsg so the
// receiving node can route it to the peer shard that owns the key; shard s
// of one node only ever converses with shard s of the others. All nodes of
// a cluster must therefore be configured with the same shard count.
//
// Small messages (INVs, ACKs, VALs) are not sent one by one: each engine
// stages what one burst of its turns sent, per peer and flow-control class,
// and at the end of the burst (Shard.loop) sends each stage itself as one
// proto.ShardBatch. Transport.Send never blocks, so the event loop can afford
// to; the transport's per-peer link is the only egress queue, and there the
// stages of one burst — and of the other shards' concurrent bursts — meet in
// one frame and one write, cutting the per-write frame rate that W would
// otherwise multiply. Arriving batches fan back out to owner shards in
// dispatch.
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

	// Egress counters (atomic; see CoalesceStats).
	batchesOut, coalescedOut, singlesOut atomic.Uint64

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
	peers []proto.NodeID // gossip destinations (ShardedConfig.GossipPeers)

	// The control goroutine: wake is poked when a host call leaves a view
	// rolling, ctlStop (closed once, by Close) stops it, ctlDone closes when
	// it has returned.
	wake             chan struct{}
	ctlStop, ctlDone chan struct{}
	stopOnce         sync.Once
}

// ShardedConfig parameterizes a live replica. Shards is the worker count W
// (values < 1 become 1, so the zero value is a plain single-engine node).
type ShardedConfig struct {
	ID   proto.NodeID
	View proto.View
	MLT  time.Duration // message-loss timeout (default 20ms)
	// Hermes toggles (see core.Config).
	ElideVAL, EarlyACKs, NoLSC bool
	TickEvery                  time.Duration // protocol timer granularity (default 2ms)
	Shards                     int
	// GossipEvery, when positive, announces this node's per-shard epoch
	// vector (proto.EpochGossip) to GossipPeers on that period (self is
	// skipped). With the observer on the receive side this closes the
	// self-healing loop: a node that missed m-updates learns its lag from any
	// peer's gossip and fast-forwards itself. It also sets the fast-forward
	// debounce to 4 x GossipEvery (100ms when gossip is off). Zero, the
	// default, starts no timer.
	GossipEvery time.Duration
	GossipPeers []proto.NodeID
}

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

// shardTransport is one shard's egress onto the node's transport: it tags
// outgoing messages with the shard index, gathers the small ones of a burst
// per peer and class, and sends each gathering as one batch.
type shardTransport struct {
	sn  *ShardedNode
	idx uint16
	// stages holds what the current burst of engine turns has sent so far,
	// one entry per (peer, class) this shard has ever addressed — a handful,
	// so lookup is a scan — ordered by peer, so that the sends handOff makes
	// to one peer are adjacent. Only the shard's event loop touches it, so
	// Send takes no lock; handOff empties it at the end of every loop
	// iteration.
	stages []egressStage
}

// egressStage is what one burst sends one peer in one flow-control class, in
// send order.
type egressStage struct {
	to    proto.NodeID
	class msgClass
	msgs  []proto.ShardMsg
}

func (t *shardTransport) Send(to proto.NodeID, msg any) {
	sm := proto.ShardMsg{Shard: t.idx, Msg: msg}
	if core.Coalescable(msg) {
		// Small messages are the coalescing targets: at W shards they
		// dominate the frame rate, and no protocol property depends on
		// their ordering relative to the direct path (links are lossy and
		// reordering anyway).
		st := t.stage(to, classOf(msg))
		st.msgs = append(st.msgs, sm)
		return
	}
	t.sn.tr.Send(t.sn.id, to, sm)
}

// stage returns the stage for a peer and class, inserting it in (peer, class)
// order on first contact. The pointer is good until the next call.
func (t *shardTransport) stage(to proto.NodeID, class msgClass) *egressStage {
	i := 0
	for ; i < len(t.stages); i++ {
		st := &t.stages[i]
		if st.to == to && st.class == class {
			return st
		}
		if st.to > to || (st.to == to && st.class > class) {
			break
		}
	}
	t.stages = append(t.stages, egressStage{})
	copy(t.stages[i+1:], t.stages[i:])
	t.stages[i] = egressStage{to: to, class: class}
	return &t.stages[i]
}

// handOff ends a burst: every non-empty stage leaves in one Transport.Send —
// several past a class's frame budget — peer by peer, responses first. Send
// does not block and does not keep what it is given, so this runs on the event
// loop, which calls it before it blocks again, every time. Over a
// transport.Mesh the first send to a peer starts that peer's link flusher and
// the rest are queued before it runs: one wake-up, one frame, one write per
// peer per burst.
func (t *shardTransport) handOff() {
	sn := t.sn
	var batches, coalesced, singles uint64
	for i := range t.stages {
		st := &t.stages[i]
		if len(st.msgs) == 0 {
			continue
		}
		for rest := st.msgs; len(rest) > 0; {
			n := st.class.frameLen(rest)
			if n == 1 {
				// A lone message ships as a plain ShardMsg: no envelope
				// overhead, and the wire stays identical to the
				// pre-coalescing protocol whenever there is nothing to
				// coalesce.
				singles++
				sn.tr.Send(sn.id, st.to, rest[0])
			} else {
				batches++
				coalesced += uint64(n)
				sn.tr.Send(sn.id, st.to, proto.ShardBatch{Msgs: rest[:n]})
			}
			rest = rest[n:]
		}
		if cap(st.msgs) > maxSpareMsgs {
			st.msgs = nil
			continue
		}
		// Send has encoded or copied the messages and spent their buffer
		// references; a sent INV must not stay reachable through the stage's
		// array.
		clear(st.msgs)
		st.msgs = st.msgs[:0]
	}
	if batches+singles > 0 {
		sn.batchesOut.Add(batches)
		sn.coalescedOut.Add(coalesced)
		sn.singlesOut.Add(singles)
	}
}

// msgClass is the flow-control class of a staged message; one batch carries
// exactly one class, because the classes settle credits differently and a
// mixed batch would have no coherent price.
type msgClass uint8

const (
	// classResponse: ACKs. A homogeneous response batch consumes no send
	// credit, so ACK egress — the traffic that repays the peer's credits —
	// never waits behind a credit-starved batch of another class in the
	// transport's queue (mixing could deadlock two mutually starved peers,
	// each holding the other's repayments behind its own starved requests).
	classResponse msgClass = iota
	// classOneWay: VALs. One credit per batch, repaid by the receiver's
	// explicit grants counting the batch once.
	classOneWay
	// classRequest: INVs. One credit per inner message (wings prices the
	// batch via LinkConfig.CreditCost), each repaid implicitly by its ACK.
	// Request batches are additionally budgeted, by bytes and by count.
	classRequest
)

func classOf(msg any) msgClass {
	if core.IsResponseMsg(msg) {
		return classResponse
	}
	if _, ok := msg.(core.INV); ok {
		return classRequest
	}
	return classOneWay
}

// maxBatchMsgs caps one ShardBatch at the codec's 2-byte count; a fuller
// stage leaves as several batches.
const maxBatchMsgs = 0xFFFF

// maxBatchBytes budgets one request-class (INV) batch. INVs carry values, so
// unlike the fixed-size ACK/VAL batches theirs can grow arbitrarily; past the
// budget the stage leaves as several batches, keeping per-message encode
// latency bounded while still amortizing the framing and credit overhead. A
// single oversized INV still ships alone.
const maxBatchBytes = 64 << 10

// maxRequestBatch caps a request batch by count, because its credit price is
// its count: the price has to stay far below the send window (1024 in
// transport.DefaultLinkConfig, of which one-way traffic the peer has not yet
// granted for can hold 63), or the batch would wait for a level of credits
// the window never reaches — and every later INV and VAL behind it.
const maxRequestBatch = 256

// shardMsgSize estimates one coalesced message's wire footprint for the
// request-class byte budget: fixed header plus the value an INV carries.
func shardMsgSize(sm proto.ShardMsg) int {
	const overhead = 32
	if inv, ok := sm.Msg.(core.INV); ok {
		return overhead + len(inv.Value)
	}
	return overhead
}

// maxSpareMsgs caps the capacity of a stage buffer kept for reuse (24 B an
// entry): one grown past it by one huge burst goes back to the collector once
// it has been sent.
const maxSpareMsgs = 4096

// frameLen is how many of the staged messages go into the next batch: all
// that the codec's count allows and, for requests, the two budgets.
func (c msgClass) frameLen(staged []proto.ShardMsg) int {
	if c != classRequest {
		return min(len(staged), maxBatchMsgs)
	}
	n := min(len(staged), maxRequestBatch)
	size := 0
	for i := 0; i < n; i++ {
		size += shardMsgSize(staged[i])
		if size > maxBatchBytes && i > 0 {
			return i
		}
	}
	return n
}

// CoalesceStats reports the egress stages' work, counted at the hand-off:
// batches sent, messages carried inside them, messages that left alone. The
// fourth result is always 0: nothing is queued here, so nothing is shed here —
// a transport that queues counts its own (wings.Stats.Shed).
func (sn *ShardedNode) CoalesceStats() (batches, coalesced, singles, dropped uint64) {
	return sn.batchesOut.Load(), sn.coalescedOut.Load(), sn.singlesOut.Load(), 0
}

// NewShardedNode builds and starts a live Hermes replica with cfg.Shards
// engines on tr.
func NewShardedNode(cfg ShardedConfig, tr Transport) *ShardedNode {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MLT <= 0 {
		cfg.MLT = 20 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 2 * time.Millisecond
	}
	sn := &ShardedNode{
		id:      cfg.ID,
		w:       cfg.Shards,
		tr:      tr,
		start:   time.Now(),
		peers:   append([]proto.NodeID(nil), cfg.GossipPeers...),
		wake:    make(chan struct{}, 1),
		ctlStop: make(chan struct{}),
		ctlDone: make(chan struct{}),
	}
	for i := 0; i < sn.w; i++ {
		sn.shards = append(sn.shards, newShard(cfg, &shardTransport{sn: sn, idx: uint16(i)}))
	}
	sn.drv = hostDriver{sn}
	sn.host = shardhost.New(cfg.ID, sn.w, sn.drv)
	sn.host.Stagger = rollStagger
	sn.host.GossipEvery = cfg.GossipEvery
	go sn.control(cfg.GossipEvery)
	tr.SetDeliver(cfg.ID, sn.dispatch)
	return sn
}

// rollStagger spaces a live roll's installs. Each install is also held back
// until the previous one has landed, so this is only the floor between them,
// and the period at which the control goroutine polls for that while a view
// rolls.
const rollStagger = time.Millisecond

// control is the node's control-plane clock: it steps the host when a view
// is accepted, every rollStagger while one rolls and every gossipEvery while
// gossip is on. Otherwise it parks: a node with gossip off and no views
// takes no timer wakeups.
func (sn *ShardedNode) control(gossipEvery time.Duration) {
	defer close(sn.ctlDone)
	for {
		rolling := sn.runHost(func(h *shardhost.Host) { h.Step(time.Since(sn.start)) })
		var tick <-chan time.Time
		switch {
		case rolling:
			tick = time.After(rollStagger)
		case gossipEvery > 0:
			tick = time.After(gossipEvery)
		}
		select {
		case <-sn.ctlStop:
			return
		case <-sn.wake:
		case <-tick:
		}
	}
}

// dispatch is the transport's arrival callback. Data-plane traffic is routed
// statelessly — no lock, no allocation, straight onto the owner shard's
// inbox; only the node-level membership messages Route declines take ctlMu
// and reach the host's control plane.
func (sn *ShardedNode) dispatch(from proto.NodeID, msg any) {
	if shardhost.Route(sn.w, sn.drv, from, msg) {
		return
	}
	sn.withHost(func(h *shardhost.Host) { h.Dispatch(from, msg, time.Since(sn.start)) })
}

// withHost runs fn on the control-plane host (runHost) and wakes the
// control goroutine if a view is left rolling — fn may have accepted one.
func (sn *ShardedNode) withHost(fn func(h *shardhost.Host)) {
	if sn.runHost(fn) {
		select {
		case sn.wake <- struct{}{}:
		default:
		}
	}
}

// runHost runs fn on the host under ctlMu, then performs the effects the
// driver queued during it with the mutex released: an install enqueues on a
// shard inbox and may wait behind a busy event loop, and a mutex must not be
// held across that. It reports whether a view is rolling.
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
// pump, which must not block behind one busy shard's event loop — that would
// re-couple the shards the per-shard epochs decouple. The roll waits for the
// shard's gate epoch to move before it hands out the next install.
func (d hostDriver) Install(shard int, v proto.View) {
	s := d.sn.shards[shard]
	d.sn.after = append(d.sn.after, func() { s.installAsync(v) })
}

// Epoch reads the shard's atomic read-gate word; safe mid-traffic.
func (d hostDriver) Epoch(shard int) uint32 { return d.sn.shards[shard].h.ReadGate().Epoch() }

// Load is the shard's total reads served (fast path + event loop) plus
// update ops submitted; safe mid-traffic.
func (d hostDriver) Load(shard int) uint64 {
	s := d.sn.shards[shard]
	reads, _, _ := s.h.ReadStats()
	return reads + s.updates.Load()
}

// Peers are ShardedConfig.GossipPeers.
func (d hostDriver) Peers() []proto.NodeID { return d.sn.peers }

// Send is called under ctlMu, on a transport read pump or the control
// goroutine. Transport.Send never blocks, so neither the data traffic behind
// a pump nor the other callers of the host wait on the peer; and a
// ViewLogResp, which repays the send
// credit its request consumed on the requester's link, always gets out,
// because a response needs no credit itself.
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

// ObserveGossip feeds a peer's per-shard epoch vector that arrived outside
// the mesh (a membership heartbeat piggyback: membership.Config.OnPeerAhead)
// to the observer wire EpochGossip frames reach through dispatch.
func (sn *ShardedNode) ObserveGossip(from proto.NodeID, epochs []uint32) {
	sn.withHost(func(h *shardhost.Host) { h.ObserveGossip(from, epochs, time.Since(sn.start)) })
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
// touching the event loop (the HermesKV fast path, §4.1). Otherwise —
// non-Valid key, NoLSC mode (the fast path must not bypass the §8
// membership proof), an in-flight view installation, or a non-serving
// replica — the op goes through the event loop and stalls until the key
// validates.
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
// shard's segment, never touching the event loop. ok=false means the caller
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
	var slots [burstWindow]*kvs.Slot
	for len(keys) > 0 {
		n := min(len(keys), burstWindow)
		for i, k := range keys[:n] {
			slots[i] = sn.shardFor(k).h.Store().Lookup(k)
		}
		kvs.Touch(slots[:n])
		keys = keys[n:]
	}
}

// SubmitAsync submits op to its owning shard's event loop and invokes fn
// with its completion instead of blocking the caller — the pipelined serving
// layer's path: one session goroutine keeps hundreds of ops in flight
// without a goroutine per op. fn runs on the event-loop goroutine and MUST
// NOT block (enqueue and return; a blocking fn stalls the whole shard).
// op.ID is assigned here; the completion's OpID echoes it. Blocks only if
// the shard's ops queue is full (bounded backpressure on the submitting
// session, never on other sessions or shards).
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
	return sn.shardFor(op.Key).submit(context.Background(), op, fn)
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
// Blocks until the target shard's event loop has completed the transition.
func (sn *ShardedNode) InstallShardView(shard int, v proto.View) {
	sn.recordView(proto.MUpdate{Shard: uint16(shard), View: v})
	sn.shards[shard].installView(v)
}

// ShardLoads reports each shard's live client-op load — total reads served
// (fast path + event loop) plus update ops submitted since construction;
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

// Close stops the control goroutine and all shard engines (the transport is
// the caller's to close). A roll still under way is abandoned.
func (sn *ShardedNode) Close() {
	sn.stopOnce.Do(func() { close(sn.ctlStop) })
	<-sn.ctlDone
	for _, s := range sn.shards {
		s.close()
	}
}

// ShardedLocal is a single-process replica group over a ChanTransport: the
// quickstart deployment and the fixture for live tests.
type ShardedLocal struct {
	Nodes []*ShardedNode
	Tr    *ChanTransport
}

// LocalConfig parameterizes NewShardedLocal.
type LocalConfig struct {
	N         int
	MLT       time.Duration
	ElideVAL  bool
	EarlyACKs bool
	NoLSC     bool
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
			ID: id, View: view, MLT: cfg.MLT,
			ElideVAL: cfg.ElideVAL, EarlyACKs: cfg.EarlyACKs, NoLSC: cfg.NoLSC,
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
