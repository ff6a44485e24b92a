// Package core implements the Hermes replication protocol — the paper's
// primary contribution (§3): a membership-based, broadcast, invalidation
// protocol with per-key logical timestamps that provides
//
//   - linearizable local reads at every replica,
//   - decentralized, inter-key-concurrent, non-conflicting writes that
//     commit after one round-trip of INV/ACK (plus an off-critical-path VAL),
//   - conflicting single-key RMWs (§3.6),
//   - fault tolerance through safely replayable writes (§3.1, §3.4).
//
// A Hermes replica is a deterministic single-threaded state machine
// implementing proto.Replica; the same code runs under the discrete-event
// simulator (internal/sim) and the live goroutine runtime
// (internal/cluster). Of the §3.3 optimizations, O1 (a superseded write
// sends no VAL) is the only behaviour, and O2 (virtual node IDs) and the
// clock-free read validation of §8 are switchable for ablation; see doc.go
// for why O3 is neither.
package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
)

// Config parameterizes a Hermes replica.
type Config struct {
	// ID is this replica's node ID.
	ID proto.NodeID
	// View is the initial reliable-membership view.
	View proto.View
	// Env connects the replica to its harness.
	Env proto.Env
	// Store holds the replicated records; if nil a private store is created.
	// In the live runtime the store is shared with the lock-free read path.
	Store *kvs.Store
	// MLT is the message-loss timeout (§3.4): how long a request may sit on
	// an Invalid key, or an INV broadcast may go unacknowledged, before the
	// replica suspects loss and retransmits or replays.
	MLT time.Duration
	// VirtualIDs enables optimization O2: the set of coordinator IDs this
	// node may stamp writes with, improving conflict-resolution fairness.
	// Empty means {uint16(ID)}. All nodes' sets must be disjoint.
	VirtualIDs []uint16
	// NoLSC disables reliance on loosely synchronized clocks for reads
	// (§8): reads execute speculatively and are released when a subsequent
	// local update commit — or an explicit membership check acknowledged by
	// a majority — proves this replica is still in the latest membership.
	NoLSC bool
	// Learner starts the replica as a shadow replica (§3.4 Recovery): it
	// follows writes but serves no client requests until promoted.
	Learner bool
}

// Metrics counts protocol events; the live benchmark's per-layer metrics,
// the chaos suite's fingerprints and the NoLSC ablation read them. The
// read-side fields (Reads, StalledReads, FastPathReads, FastPathMisses) are
// backed by atomics so both the event loop and fast-path caller goroutines
// can bump them; everything else is event-loop-private, so Metrics must be
// read at quiescence for those fields to be exact.
type Metrics struct {
	Reads, Writes, RMWs     uint64 // client ops submitted
	INVsSent, ACKsSent      uint64
	VALsSent                uint64
	Replays                 uint64 // write replays started
	Retransmits             uint64 // INV rebroadcasts after mlt
	RMWAborts               uint64
	RMWRecovered            uint64 // RMWs completed OK after a replay committed them (§3.6 verdict)
	StaleEpochDrops         uint64
	StalledReads            uint64 // reads that found the key not Valid
	FastPathReads           uint64 // reads served lock-free by ReadLocal
	FastPathMisses          uint64 // ReadLocal fallbacks to the Submit path
	MChecks                 uint64 // §8 membership checks issued
	SpecReadsFlushedByWrite uint64 // §8 reads released by a local commit
	TeachACKs               uint64 // ACK-without-apply carrying the rival entry
	TaughtApplied           uint64 // rival entries installed from teaching ACKs
}

// Hermes is one replica's protocol state machine.
type Hermes struct {
	cfg     Config
	id      proto.NodeID
	env     proto.Env
	store   *kvs.Store
	view    proto.View
	meta    map[proto.Key]*keyMeta
	rng     *rand.Rand
	oper    bool // has a valid RM lease; serves client requests
	metrics Metrics

	// freeMeta recycles the keyMetas gc drops: a write needs one for the
	// length of its INV/ACK round only, so the steady-state write takes its
	// coordination state (the pending update included) from here instead of
	// the allocator. A plain stack — the engine is single-threaded — and no
	// observable order depends on which object a key gets.
	freeMeta []*keyMeta

	// nextDue is a lower bound on every armed deadline (each pending
	// update's resendAt, each meta's replayAt): Tick walks the meta map only
	// once now reaches it. arm lowers it, and each walk recomputes it.
	nextDue time.Duration

	// gate is the atomically-published condition for the lock-free read
	// fast path; the read-side counters beneath it are the Metrics fields
	// two goroutine classes bump (see ReadLocal). reads counts only
	// Submit-path reads; the total is reads+fastReads. The fast-path pair is
	// striped (readCounter) because every reader goroutine bumps it.
	gate                  ReadGate
	reads                 atomic.Uint64
	fastReads, fastMisses readCounter
	stalledReads          atomic.Uint64

	virtualIDs []uint16

	// wset caches h.view.WriteSet(h.id), recomputed on every view install:
	// the write hot path consults it once per INV/ACK/VAL broadcast and per
	// received ACK, and WriteSet allocates on each call.
	wset []proto.NodeID

	// §8 clock-free read validation state.
	specReads []specRead
	checkSeq  uint64
	checkAcks int
	checkUpTo int // specReads prefix covered by the outstanding check
	checkOpen bool

	// Learner (shadow replica) catch-up state.
	learner      bool
	fetchCursor  uint64 // lowest key the transfer still needs
	fetchChunks  int    // chunks applied so far; picks the next member asked
	fetchBusy    bool
	fetchRetryAt time.Duration
	fetchDone    bool
}

type specRead struct {
	op  proto.ClientOp
	val proto.Value
}

// keyMeta holds the transient coordination state of one key. A meta exists
// only while the key has an in-flight update, stalled requests or an armed
// replay timer; quiescent keys carry no overhead.
type keyMeta struct {
	pend *pending // nil, or &pendBuf (see setPend)
	// pendBuf backs pend so that starting an update allocates nothing beyond
	// the meta itself. It is overwritten by the key's next update: code must
	// not hold a *pending across a call that can start one (drainWaiters).
	pendBuf pending
	// slot caches the key's store slot once a turn has resolved it, so the
	// later turns of the same update (ACKs, commit) skip the store's index.
	// Only a non-nil value is trusted; slots are never removed.
	slot     *kvs.Slot
	waiters  []proto.ClientOp
	replayAt time.Duration // when non-zero: replay if still Invalid then
}

// nodeSet is an allocation-free set of node IDs (the ID space is 8-bit).
// pending embeds one per update instead of a map: the write hot path resets
// and repopulates it once per INV round, and a map there costs an allocation
// per write.
type nodeSet [4]uint64

func (s *nodeSet) add(n proto.NodeID)      { s[n>>6] |= 1 << (n & 63) }
func (s *nodeSet) has(n proto.NodeID) bool { return s[n>>6]&(1<<(n&63)) != 0 }
func (s *nodeSet) clear()                  { *s = nodeSet{} }

// pending tracks an update this node coordinates (original write, RMW, or a
// replay of a write it learned about through an INV).
type pending struct {
	ts       proto.TS
	val      proto.Value
	rmw      bool
	replay   bool
	hasOp    bool
	op       proto.ClientOp
	oldVal   proto.Value // FAA result
	acked    nodeSet
	resendAt time.Duration
	// slipped records that a view excluding this replica was installed while
	// the pend was open: updates may then have committed without our ACK,
	// which voids the §3.6 version-jump verdict (see applyINV).
	slipped bool
}

// New builds a Hermes replica from cfg. The replica is operational
// immediately unless cfg.Learner is set.
func New(cfg Config) *Hermes {
	if cfg.Env == nil {
		panic("core: Config.Env is required")
	}
	if cfg.MLT <= 0 {
		cfg.MLT = 10 * time.Millisecond
	}
	st := cfg.Store
	if st == nil {
		st = kvs.New(16)
	}
	h := &Hermes{
		cfg:        cfg,
		id:         cfg.ID,
		env:        cfg.Env,
		store:      st,
		view:       cfg.View.Clone(),
		meta:       make(map[proto.Key]*keyMeta),
		rng:        rand.New(rand.NewSource(int64(cfg.ID) + 1)), // virtual-ID choice, seeded per node
		oper:       !cfg.Learner,
		learner:    cfg.Learner,
		virtualIDs: cfg.VirtualIDs,
	}
	if len(h.virtualIDs) == 0 {
		h.virtualIDs = []uint16{uint16(cfg.ID)}
	}
	h.wset = h.view.WriteSet(h.id)
	h.publishGate()
	return h
}

// VirtualIDs returns the disjoint virtual-ID set {id, id+n, id+2n, ...} of
// size k for a node in a cluster of n nodes — the assignment scheme of the
// paper's O2 example (§3.3). Pair with StrideOwner(n).
func VirtualIDs(id proto.NodeID, n, k int) []uint16 {
	out := make([]uint16, k)
	for i := 0; i < k; i++ {
		out[i] = uint16(int(id) + i*n)
	}
	return out
}

// StrideOwner maps a cid stamped under VirtualIDs back to the physical node
// of an n-node cluster that owns it. The protocol never needs the owner; the
// O2 ablation uses it to attribute conflict wins to nodes.
func StrideOwner(n int) func(uint16) proto.NodeID {
	return func(cid uint16) proto.NodeID { return proto.NodeID(int(cid) % n) }
}

// ID implements proto.Replica.
func (h *Hermes) ID() proto.NodeID { return h.id }

// View returns the replica's current membership view.
func (h *Hermes) View() proto.View { return h.view }

// Metrics returns a snapshot of the replica's protocol counters.
func (h *Hermes) Metrics() Metrics {
	m := h.metrics
	m.FastPathReads = h.fastReads.Load()
	m.FastPathMisses = h.fastMisses.Load()
	m.Reads = h.reads.Load() + m.FastPathReads
	m.StalledReads = h.stalledReads.Load()
	return m
}

// Store exposes the underlying record store (the live runtime's lock-free
// read path and tests read it).
func (h *Hermes) Store() *kvs.Store { return h.store }

// Prefetch warms the store's index entries and slots for keys ahead of the
// turns that will act on them (kvs.Store.Prefetch). It changes no state, so
// it may run from any goroutine, before any turns or none.
func (h *Hermes) Prefetch(keys []proto.Key) { h.store.Prefetch(keys) }

// SetOperational marks the replica as holding (or not holding) a valid RM
// lease. Non-operational replicas reject client requests (§2.4: nodes on a
// minority partition stop serving before the membership is updated).
func (h *Hermes) SetOperational(ok bool) {
	h.oper = ok
	h.publishGate()
}

// Operational reports whether the replica currently serves client requests.
func (h *Hermes) Operational() bool { return h.oper && !h.learner }

// SetNoLSC flips §8 clock-free read mode at runtime — an operator restoring
// trust in loosely synchronized clocks (or withdrawing it when skew is
// detected) without a restart. Must be called from the event loop's
// goroutine, like any state mutation. Enabling closes the read-gate fast
// path immediately; disabling reopens it, and reads already queued
// speculatively still drain through their majority proof (Tick and commit
// flushes are gated on pending reads, not on the mode).
func (h *Hermes) SetNoLSC(on bool) {
	if h.cfg.NoLSC == on {
		return
	}
	h.cfg.NoLSC = on
	h.publishGate()
}

// entry fetches the key's record; missing keys read as Valid with a zero
// timestamp and nil value (the store's implicit initial state). It
// materialises the value (a copy, for an inline one): turns that only compare
// timestamps and states read headOf instead.
func (h *Hermes) entry(k proto.Key) kvs.Entry { return entryOf(h.store.Lookup(k)) }

// entryOf is entry on an already resolved slot (nil: the key is missing).
func entryOf(sl *kvs.Slot) kvs.Entry {
	e, ok := sl.Load()
	if !ok {
		return kvs.Entry{State: kvs.Valid}
	}
	return e
}

// headOf is entryOf without the value: the slot's timestamp, State and RMW
// flag, read from its state and meta words alone.
func headOf(sl *kvs.Slot) kvs.Head {
	hd, ok := sl.Head()
	if !ok {
		return kvs.Head{State: kvs.Valid}
	}
	return hd
}

// valueOf is the slot's value in a form that may outlive the turn (see
// safeVal): an inline value is copied out of the slot, an owner-backed one
// cloned, a private heap one aliased.
func valueOf(sl *kvs.Slot) proto.Value { return safeVal(entryOf(sl)) }

// slotOf resolves k's store slot — nil while the key has never been written
// — consulting the store's index only when m (the key's meta, nil if none)
// has not cached it. The write handlers resolve the slot once per turn and
// read, install and revalidate through it.
func (h *Hermes) slotOf(k proto.Key, m *keyMeta) *kvs.Slot {
	if m != nil && m.slot != nil {
		return m.slot
	}
	sl := h.store.Lookup(k)
	if m != nil {
		m.slot = sl
	}
	return sl
}

// safeVal returns an entry's value in a form that may outlive the current
// event-loop turn: owner-backed values (zero-copy adopted from a pooled wire
// frame) are cloned, because the pool reclaims the frame once a newer entry
// replaces this one; owner-less values are immutable private heap slices (an
// inline value's view is a fresh copy already) and alias freely. Every value
// that escapes the turn — completions, messages encoded asynchronously by
// the transport, spec-read and pending buffers — must pass through here.
func safeVal(e kvs.Entry) proto.Value {
	if e.Owner != nil {
		return e.Value.Clone()
	}
	return e.Value
}

// maxFreeMeta bounds the recycled-meta stack: enough for every update a
// shard can have in flight at once, small enough that a one-off burst of
// stalled keys does not stay resident.
const maxFreeMeta = 1024

// newMeta installs a zeroed meta for k, which must have none.
func (h *Hermes) newMeta(k proto.Key) *keyMeta {
	var m *keyMeta
	if n := len(h.freeMeta); n > 0 {
		m, h.freeMeta = h.freeMeta[n-1], h.freeMeta[:n-1]
	} else {
		m = &keyMeta{}
	}
	h.meta[k] = m
	return m
}

// setPend makes p the key's pending update.
func (m *keyMeta) setPend(p pending) *pending {
	m.pendBuf = p
	m.pend = &m.pendBuf
	return m.pend
}

// sortedMetaKeys snapshots the keys with live coordination state in key
// order. Tick and OnViewChange iterate this instead of the meta map so the
// order of retransmissions and rebroadcasts — and therefore every downstream
// network event — is deterministic, which is what makes chaos-harness runs
// exactly replayable from a seed.
func (h *Hermes) sortedMetaKeys() []proto.Key {
	if len(h.meta) == 0 {
		return nil
	}
	keys := make([]proto.Key, 0, len(h.meta))
	for k := range h.meta {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// gc drops the key's meta if it holds no state and recycles it. Handlers
// may reach gc twice for one meta in a turn (validate, then their own tail);
// the identity check makes the second a no-op instead of a double free.
func (h *Hermes) gc(k proto.Key, m *keyMeta) {
	if m.pend != nil || len(m.waiters) > 0 || m.replayAt != 0 || h.meta[k] != m {
		return
	}
	delete(h.meta, k)
	if len(h.freeMeta) < maxFreeMeta {
		*m = keyMeta{} // also drops the waiters array and the values it pinned
		h.freeMeta = append(h.freeMeta, m)
	}
}

// Submit implements proto.Replica. An update's op.Value is handed over to
// the replica (see startUpdate): the submitter must not mutate it afterwards.
func (h *Hermes) Submit(op proto.ClientOp) {
	if !h.Operational() {
		h.env.Complete(proto.Completion{OpID: op.ID, Kind: op.Kind, Key: op.Key, Status: proto.NotOperational})
		return
	}
	switch op.Kind {
	case proto.OpRead:
		h.reads.Add(1)
	case proto.OpWrite:
		h.metrics.Writes++
	default:
		h.metrics.RMWs++
	}
	m := h.meta[op.Key]
	sl := h.slotOf(op.Key, m)
	hd := headOf(sl)
	if hd.State != kvs.Valid || (m != nil && m.pend != nil) {
		if op.Kind == proto.OpRead && hd.State == kvs.Valid {
			// Valid but this node coordinates an in-flight update whose
			// local apply is imminent; still safe to read the Valid value.
			h.completeRead(op, valueOf(sl))
			return
		}
		if op.Kind == proto.OpRead {
			h.stalledReads.Add(1)
		}
		h.stall(op, hd.State, m)
		return
	}
	if op.Kind == proto.OpRead {
		h.completeRead(op, valueOf(sl))
		return
	}
	h.startUpdate(op, hd.TS, m, sl)
}

// stall queues op on its key and arms the replay timer: if the key is still
// Invalid after the message-loss timeout, the missing VAL is presumed lost
// and the write is replayed (§3.4 Imperfect Links).
func (h *Hermes) stall(op proto.ClientOp, st kvs.KeyState, m *keyMeta) {
	if m == nil {
		m = h.newMeta(op.Key)
	}
	m.waiters = append(m.waiters, op)
	if st == kvs.Invalid && m.pend == nil && m.replayAt == 0 {
		m.replayAt = h.arm(h.env.Now() + h.cfg.MLT)
	}
}

func (h *Hermes) completeRead(op proto.ClientOp, val proto.Value) {
	if h.cfg.NoLSC {
		// §8: execute speculatively; release on the next commit proof.
		h.specReads = append(h.specReads, specRead{op: op, val: val})
		return
	}
	h.env.Complete(proto.Completion{OpID: op.ID, Kind: proto.OpRead, Key: op.Key, Status: proto.OK, Value: val})
}

// startUpdate begins coordinating a write or RMW for a key currently in
// Valid state with no local pending update (§3.2 coordinator steps CTS,
// CINV), whose record is at timestamp cur. m and sl are the key's meta and
// store slot as the caller resolved them, nil where the key has none yet.
//
// op.Value is handed over: it becomes the stored and broadcast value as is,
// so the submitter must not mutate it afterwards. Wire-decoded requests
// arrive in private copies already; the blocking API, whose callers keep
// their buffers, clones at its own boundary (cluster.ShardedNode.Write).
func (h *Hermes) startUpdate(op proto.ClientOp, cur proto.TS, m *keyMeta, sl *kvs.Slot) {
	var newVal, oldVal proto.Value
	rmw := op.Kind.IsRMW()
	switch op.Kind {
	case proto.OpWrite:
		newVal = op.Value
	case proto.OpCAS:
		if v := valueOf(sl); !bytes.Equal(v, op.Expected) {
			// Failed CAS is a linearizable read of the current value; no
			// protocol action needed since the key is Valid.
			h.env.Complete(proto.Completion{OpID: op.ID, Kind: op.Kind, Key: op.Key, Status: proto.CASFailed, Value: v})
			return
		}
		newVal = op.Value
	case proto.OpFAA:
		oldVal = valueOf(sl)
		newVal = proto.EncodeInt64(proto.DecodeInt64(oldVal) + proto.DecodeInt64(op.Value))
	default:
		// Reads are served from the local Valid copy and never coordinate.
		panic("core: non-update op kind reached startUpdate")
	}

	// CTS: writes advance the version by 2, RMWs by 1, so a write racing an
	// RMW from the same base version always outranks it and the RMW safely
	// aborts (§3.6).
	ts := proto.TS{Version: cur.Version + 2, CID: h.pickCID()}
	if rmw {
		ts.Version = cur.Version + 1
	}

	if m == nil {
		m = h.newMeta(op.Key)
	}
	if sl == nil {
		sl = h.store.Ensure(op.Key)
	}
	m.slot = sl
	p := m.setPend(pending{
		ts: ts, val: newVal, rmw: rmw,
		hasOp: true, op: op, oldVal: oldVal,
		resendAt: h.arm(h.env.Now() + h.cfg.MLT),
	})
	// CINV: apply locally and broadcast the invalidation with the value (a
	// small one is copied into the slot; the pending keeps op.Value).
	sl.Update(kvs.Entry{Value: newVal, TS: ts, State: kvs.Write, RMW: rmw})
	h.broadcastINV(op.Key, p)
	h.checkCommit(op.Key, m)
}

func (h *Hermes) pickCID() uint16 {
	if len(h.virtualIDs) == 1 {
		return h.virtualIDs[0]
	}
	return h.virtualIDs[h.rng.Intn(len(h.virtualIDs))]
}

func (h *Hermes) broadcastINV(k proto.Key, p *pending) {
	// Boxed once, outside the loop: Env.Send takes an interface, and
	// converting inside would allocate a copy of the message per peer.
	var msg any = INV{Epoch: h.view.Epoch, Key: k, TS: p.ts, Value: p.val, RMW: p.rmw}
	for _, n := range h.wset {
		if !p.acked.has(n) {
			h.env.Send(n, msg)
			h.metrics.INVsSent++
		}
	}
}

// startReplay takes on the coordinator role for the key's last-seen write,
// re-broadcasting INVs with the *original* timestamp and value so the write
// is linearized exactly where the failed coordinator would have put it
// (§3.2 Write Replays). Early value propagation in INVs is what makes this
// possible: every invalidated node already holds the value.
func (h *Hermes) startReplay(k proto.Key, m *keyMeta) {
	h.metrics.Replays++
	m.replayAt = 0
	sl := h.slotOf(k, m)
	e := entryOf(sl)
	p := m.setPend(pending{
		// The replay value escapes the turn: it is rebroadcast from timers
		// and encoded asynchronously, so an owner-backed store value must be
		// cloned out of its pooled frame first.
		ts: e.TS, val: safeVal(e), rmw: e.RMW, replay: true,
		resendAt: h.arm(h.env.Now() + h.cfg.MLT),
	})
	sl.SetState(kvs.Replay)
	h.broadcastINV(k, p)
	h.checkCommit(k, m)
}

// Deliver implements proto.Replica.
func (h *Hermes) Deliver(from proto.NodeID, msg any) {
	switch t := msg.(type) {
	case INV:
		h.onINV(from, t)
	case ACK:
		h.onACK(from, t)
	case VAL:
		h.onVAL(from, t)
	case MCheck:
		h.onMCheck(from, t)
	case MCheckAck:
		h.onMCheckAck(from, t)
	case ChunkReq:
		h.onChunkReq(from, t)
	case ChunkResp:
		h.onChunkResp(from, t)
	default:
		panic("core: unknown message type delivered to Hermes replica")
	}
}

func (h *Hermes) staleEpoch(e uint32) bool {
	if e != h.view.Epoch {
		h.metrics.StaleEpochDrops++
		return true
	}
	return false
}

// onINV implements FINV/FACK and the RMW variant FRMW-ACK. An INV decoded
// from the wire may carry one reference on the frame buffer backing its
// value (inv.Owner); exactly one of the paths below consumes it — applyINV
// adopts it into the store, every non-apply path releases it.
func (h *Hermes) onINV(from proto.NodeID, inv INV) {
	if h.staleEpoch(inv.Epoch) {
		inv.ReleaseOwner()
		return
	}
	m := h.meta[inv.Key]
	sl := h.slotOf(inv.Key, m)
	cmp := inv.TS.Compare(headOf(sl).TS)

	if inv.RMW && cmp < 0 {
		// FRMW-ACK: an RMW that has already lost. Respond with the local
		// state as an INV (the same message a write replay uses) so the RMW
		// coordinator observes the higher timestamp and aborts.
		inv.ReleaseOwner()
		e := entryOf(sl)
		h.env.Send(from, INV{Epoch: h.view.Epoch, Key: inv.Key, TS: e.TS, Value: safeVal(e), RMW: e.RMW})
		h.metrics.INVsSent++
		return
	}

	if cmp > 0 {
		h.applyINV(inv, m, sl)
	} else {
		inv.ReleaseOwner()
	}
	h.sendACK(from, inv, cmp, sl)
}

// applyINV installs a higher-timestamped update: FINV's state transition
// plus CRMW-abort when this node coordinates a pending RMW. m and sl are the
// key's meta and store slot as the caller resolved them (nil: none yet).
func (h *Hermes) applyINV(inv INV, m *keyMeta, sl *kvs.Slot) {
	st := kvs.Invalid
	if m != nil && m.pend != nil {
		p := m.pend
		switch {
		case p.rmw:
			// The arriving update's base: every update starts from a Valid —
			// committed — version at its coordinator, one below an RMW's
			// timestamp and two below a write's (§3.1, §3.6).
			base := inv.TS.Version - 2
			if inv.RMW {
				base = inv.TS.Version - 1
			}
			if p.hasOp && !p.replay && base >= p.ts.Version && !p.slipped {
				// §3.6 verdict, version-jump case: the arriving chain's base
				// was a COMMITTED version at or above ours. Every commit
				// gathers ACKs from the full write set — including us — and
				// this pend being open proves we never acknowledged a rival
				// from our base (doing so closes the pend right here). So the
				// committed version the chain built on can only be our own
				// RMW, committed on our behalf by a §3.4 write replay whose
				// VAL we missed, then overwritten — by a write two versions
				// up, or by a rival RMW exactly one version up (the case the
				// original `> p.ts.Version+1` check missed: an aborted FAA
				// whose +1 persisted, caught by the chaos harness under
				// fetch-delayed installs). Reporting Aborted would tell the
				// client an applied update had no effect — a linearizability
				// violation. Report success instead. (A same-version rival —
				// base below ours — still aborts below; and after a view
				// that excluded us the no-ACK-without-us premise is void, so
				// `slipped` falls back to the abort verdict.)
				h.metrics.RMWRecovered++
				c := proto.Completion{OpID: p.op.ID, Kind: p.op.Kind, Key: inv.Key, Status: proto.OK}
				if p.op.Kind == proto.OpFAA {
					c.Value = p.oldVal
				}
				h.env.Complete(c)
				m.pend = nil
				break
			}
			// CRMW-abort: our in-flight RMW lost to a higher-timestamped
			// update. Replayed RMWs abort silently; originals notify the
			// client.
			h.metrics.RMWAborts++
			if p.hasOp {
				h.env.Complete(proto.Completion{OpID: p.op.ID, Kind: p.op.Kind, Key: inv.Key, Status: proto.Aborted})
			}
			m.pend = nil
		case p.replay:
			// Our replay was superseded; the newer write subsumes it.
			m.pend = nil
		default:
			// A plain write keeps collecting ACKs: it still commits (writes
			// never abort) but the key stays invalid for the newer write.
			st = kvs.Trans
		}
	}
	// A value of at most kvs.InlineCap bytes is copied into the slot and the
	// INV's frame reference released in this turn, so the frame recycles at
	// once. A larger one is adopted zero-copy: the entry takes over the
	// frame reference (nil for sim/heap-decoded INVs, where Value is already
	// a private immutable slice), and the store releases it when a newer
	// entry replaces this one.
	if sl == nil {
		sl = h.store.Ensure(inv.Key)
	}
	sl.Update(kvs.Entry{Value: inv.Value, TS: inv.TS, State: st, RMW: inv.RMW, Owner: inv.Owner})
	if m != nil {
		m.slot = sl
		// Stalled requests now wait for the newer write; re-arm its timer.
		if len(m.waiters) > 0 && st == kvs.Invalid && m.pend == nil {
			m.replayAt = h.arm(h.env.Now() + h.cfg.MLT)
		}
		h.gc(inv.Key, m)
	}
}

// sendACK acknowledges an INV to its coordinator. cmp is the INV's timestamp
// compared against the local entry before the INV; when the local entry
// outranked the INV (cmp < 0, ACK-without-apply: the entry in sl still
// stands) the ACK teaches the sender the rival entry so the losing write's
// coordinator never validates its copy blind to the in-flight chain
// above it.
func (h *Hermes) sendACK(from proto.NodeID, inv INV, cmp int, sl *kvs.Slot) {
	ack := ACK{Epoch: h.view.Epoch, Key: inv.Key, TS: inv.TS}
	if cmp < 0 {
		e := entryOf(sl)
		ack.Higher = true
		ack.HTS = e.TS
		ack.HVal = safeVal(e)
		ack.HRMW = e.RMW
		h.metrics.TeachACKs++
	}
	h.env.Send(from, ack)
	h.metrics.ACKsSent++
}

// onACK implements CACK on the coordinator.
func (h *Hermes) onACK(from proto.NodeID, ack ACK) {
	if h.staleEpoch(ack.Epoch) {
		return
	}
	if ack.Higher {
		h.learnHigher(ack)
	}
	if m := h.meta[ack.Key]; m != nil && m.pend != nil && m.pend.ts == ack.TS {
		m.pend.acked.add(from)
		h.checkCommit(ack.Key, m)
	}
}

// learnHigher installs a teaching ACK's rival entry exactly as if the
// rival's own INV had arrived. The installed entry is Invalid — the teacher
// holds it uncommitted, so the rival's VAL or the §3.4 replay machinery
// (not this node) must validate it.
//
// This closes the stale-RMW-read hole: without the payload, a write that
// gathered an ACK-without-apply validates its own copy at commit time blind
// to the in-flight rival above it, and an RMW minted from that Valid copy
// reads a chain the rival later splices into below the RMW's timestamp.
// Taught, the coordinator's entry advances past its pending write instead
// (the write still commits — a plain write serializes before the rival and
// never aborts), the key stays Invalid, and the RMW waits with the other
// stalled requests until the rival's chain resolves. A pending RMW or
// replay outranked by the taught entry is handled by applyINV itself
// (CRMW-abort / subsumption). Crucially the pending's own timestamp is
// never reissued: its INV is already out, so a replay may have committed —
// and readers observed — it without this coordinator's knowledge.
func (h *Hermes) learnHigher(ack ACK) {
	m := h.meta[ack.Key]
	sl := h.slotOf(ack.Key, m)
	if !headOf(sl).TS.Before(ack.HTS) {
		return
	}
	h.metrics.TaughtApplied++
	h.applyINV(INV{Epoch: ack.Epoch, Key: ack.Key, TS: ack.HTS, Value: ack.HVal, RMW: ack.HRMW}, m, sl)
}

// onVAL implements FVAL: validate iff the timestamps match exactly.
func (h *Hermes) onVAL(from proto.NodeID, val VAL) {
	if h.staleEpoch(val.Epoch) {
		return
	}
	// Look the meta up, never create it: the common follower VAL finds none
	// (nothing stalled on the key, no timer armed) and only flips the state.
	m := h.meta[val.Key]
	sl := h.slotOf(val.Key, m)
	if hd := headOf(sl); hd.TS != val.TS || hd.State == kvs.Valid {
		return
	}
	if m != nil && m.pend != nil && m.pend.ts == val.TS {
		// Another node replayed our write to completion before our own ACKs
		// arrived; the write is committed.
		h.finishPending(val.Key, m)
		return
	}
	h.validate(val.Key, m, sl)
}

// checkCommit fires CACK once every node in the current view's write set has
// acknowledged the pending update.
func (h *Hermes) checkCommit(k proto.Key, m *keyMeta) {
	p := m.pend
	if p == nil {
		return
	}
	for _, n := range h.wset {
		if !p.acked.has(n) {
			return
		}
	}
	h.finishPending(k, m)
}

// finishPending completes a gathered update: answer the client, then
// validate — unless a concurrent higher-timestamped write superseded ours
// while we gathered ACKs, in which case nothing is sent (§3.3 O1). If the
// rival already validated the key, every other member acknowledged it and
// its head is past our timestamp, so a VAL for ours could validate nothing.
// In Trans a follower may still hold our outranked copy, which a VAL would
// validate under the rival in flight; sent nothing, it stays Invalid until
// the rival's retransmission, its VAL or a §3.4 replay moves it on.
func (h *Hermes) finishPending(k proto.Key, m *keyMeta) {
	p := m.pend
	m.pend = nil
	ts := p.ts // p is not read past this block: a drained waiter reuses it
	if p.hasOp {
		c := proto.Completion{OpID: p.op.ID, Kind: p.op.Kind, Key: k, Status: proto.OK}
		if p.op.Kind == proto.OpFAA {
			c.Value = p.oldVal
		}
		h.env.Complete(c)
	}
	// The commit is also a proof of current membership for §8 reads.
	h.flushSpecReadsOnCommit()

	sl := h.slotOf(k, m)
	hd := headOf(sl)
	switch {
	case hd.TS == ts:
		h.broadcastVAL(k, ts)
		h.validate(k, m, sl)
	case hd.State == kvs.Valid:
		// The superseding write already validated the key (its VAL arrived
		// before our last ACK). Our write committed; nothing to validate.
		h.drainWaiters(k, m)
		h.gc(k, m)
	default:
		// Trans: the key stays Invalid until the newer write validates it.
		sl.SetState(kvs.Invalid)
		if len(m.waiters) > 0 && m.replayAt == 0 {
			m.replayAt = h.arm(h.env.Now() + h.cfg.MLT)
		}
		h.gc(k, m)
	}
}

func (h *Hermes) broadcastVAL(k proto.Key, ts proto.TS) {
	var msg any = VAL{Epoch: h.view.Epoch, Key: k, TS: ts} // boxed once, see broadcastINV
	for _, n := range h.wset {
		h.env.Send(n, msg)
		h.metrics.VALsSent++
	}
}

// validate transitions the key to Valid and serves its stalled requests. m
// is nil when the key carries no coordination state, which is the common
// case at a follower: then the state flip is all there is to do.
func (h *Hermes) validate(k proto.Key, m *keyMeta, sl *kvs.Slot) {
	sl.SetState(kvs.Valid)
	if m == nil {
		return
	}
	m.replayAt = 0
	if m.pend == nil {
		h.drainWaiters(k, m)
	}
	h.gc(k, m)
}

// drainWaiters serves stalled requests in arrival order: reads complete
// against the Valid value; the first queued update becomes a new write,
// after which the key is no longer Valid and the rest keep waiting.
func (h *Hermes) drainWaiters(k proto.Key, m *keyMeta) {
	for len(m.waiters) > 0 {
		sl := h.slotOf(k, m)
		hd := headOf(sl)
		if hd.State != kvs.Valid || m.pend != nil {
			return
		}
		op := m.waiters[0]
		m.waiters = m.waiters[1:]
		if op.Kind == proto.OpRead {
			h.completeRead(op, valueOf(sl))
			continue
		}
		h.startUpdate(op, hd.TS, m, sl)
	}
}

// Tick implements proto.Replica: retransmission of unacknowledged INVs,
// write replays for keys stuck Invalid, learner chunk fetching and §8
// membership checks.
func (h *Hermes) Tick() {
	now := h.env.Now()
	if now >= h.nextDue {
		// The walk re-counts every deadline it leaves armed; the ones it
		// re-arms are counted by arm.
		h.nextDue = noDeadline
		for _, k := range h.sortedMetaKeys() {
			m := h.meta[k]
			if m == nil {
				continue // gc'd while handling an earlier key this tick
			}
			h.tickKey(k, m, now)
			if m := h.meta[k]; m != nil {
				h.nextDue = min(h.nextDue, m.due())
			}
		}
	}
	// Not gated on cfg.NoLSC: reads queued while NoLSC was on still need
	// their majority proof after SetNoLSC(false) — the mode flip must drain
	// the residue, not strand it.
	if len(h.specReads) > 0 && !h.checkOpen {
		h.issueMCheck()
	}
	if h.learner && !h.fetchDone && (!h.fetchBusy || now >= h.fetchRetryAt) {
		h.fetchNextChunk()
	}
}

// Idle reports whether Tick has nothing to do until a later turn arms
// something: no deadline armed, no speculative read awaiting its membership
// check, no learner transfer under way. A host may stop ticking an idle
// engine.
func (h *Hermes) Idle() bool {
	return h.nextDue == noDeadline && len(h.specReads) == 0 && (!h.learner || h.fetchDone)
}

// tickKey fires k's retransmission or replay if its deadline has passed.
func (h *Hermes) tickKey(k proto.Key, m *keyMeta, now time.Duration) {
	if p := m.pend; p != nil {
		if now >= p.resendAt {
			h.metrics.Retransmits++
			p.resendAt = h.arm(now + h.cfg.MLT)
			h.broadcastINV(k, p)
		}
		return
	}
	if m.replayAt != 0 && now >= m.replayAt {
		if headOf(h.slotOf(k, m)).State == kvs.Invalid {
			h.startReplay(k, m)
		} else {
			m.replayAt = 0
			h.gc(k, m)
		}
	}
}

// noDeadline is nextDue while nothing is armed.
const noDeadline = time.Duration(math.MaxInt64)

// arm lowers nextDue to the deadline at, which the caller is arming, and
// returns at.
func (h *Hermes) arm(at time.Duration) time.Duration {
	h.nextDue = min(h.nextDue, at)
	return at
}

// due is the earliest deadline armed on m: its pending update's resendAt,
// its replayAt, or noDeadline.
func (m *keyMeta) due() time.Duration {
	d := noDeadline
	if m.pend != nil {
		d = m.pend.resendAt
	}
	if m.replayAt != 0 {
		d = min(d, m.replayAt)
	}
	return d
}

// OnViewChange implements proto.Replica: install the m-update (§3.4).
// Every pending update resets its gathered ACKs and rebroadcasts its INVs
// under the new epoch, so commitment is re-established against the new
// membership from scratch. An ACK gathered under an older epoch proves
// nothing about the node that sent it: it may since have crashed, lost its
// store, and rejoined as a learner whose chunk transfer delivered a snapshot
// that predates this very write — counting its dead incarnation's ACK would
// commit the write without ever invalidating the new incarnation, leaving
// that node Valid at a stale version. A coordinator minting a timestamp from
// that stale version then loses to the already-committed write and its
// update silently vanishes (found by the gray-failure chaos sweep; pinned by
// TestChaosStaleAckIncarnation).
func (h *Hermes) OnViewChange(v proto.View) {
	if v.Epoch <= h.view.Epoch {
		// Duplicate or stale m-update: a lossy wire may deliver the same
		// MUpdate twice, and the live runtime shuts the read gate before
		// *every* install — republish it here or a no-op install would leave
		// the fast path shut forever.
		h.publishGate()
		return
	}
	h.view = v.Clone()
	h.learner = v.IsLearner(h.id)
	excluded := !v.Contains(h.id) && !h.learner
	if v.Contains(h.id) {
		// Full member (covers a learner's promotion to serving member).
		h.oper = true
	} else if !h.learner {
		// Removed from the membership (e.g. we were on the losing side of a
		// partition): stop serving until re-added.
		h.oper = false
	}
	// An open membership check is against a dead epoch.
	h.checkOpen = false
	h.checkAcks = 0
	// Reopen (or keep shut) the lock-free read gate under the new epoch;
	// the live runtime shut it before it queued this m-update.
	h.wset = h.view.WriteSet(h.id)
	h.publishGate()
	for _, k := range h.sortedMetaKeys() {
		m := h.meta[k]
		if m == nil {
			continue
		}
		p := m.pend
		if p == nil {
			continue
		}
		if excluded {
			// Commits in this view no longer need our ACK: the version-jump
			// verdict (applyINV) must not claim them as ours.
			p.slipped = true
		}
		p.acked.clear()
		p.resendAt = h.arm(h.env.Now() + h.cfg.MLT)
		h.broadcastINV(k, p)
		h.checkCommit(k, m)
	}
}

// --- §8: linearizable reads without loosely synchronized clocks ---

func (h *Hermes) issueMCheck() {
	h.checkSeq++
	h.checkOpen = true
	h.checkAcks = 0
	h.checkUpTo = len(h.specReads)
	h.metrics.MChecks++
	for _, n := range h.view.Others(h.id) {
		h.env.Send(n, MCheck{Epoch: h.view.Epoch, Seq: h.checkSeq})
	}
	// Degenerate single-node view: we are the majority.
	h.maybeReleaseSpecReads()
}

func (h *Hermes) onMCheck(from proto.NodeID, mc MCheck) {
	if h.staleEpoch(mc.Epoch) {
		return
	}
	h.env.Send(from, MCheckAck{Epoch: mc.Epoch, Seq: mc.Seq})
}

func (h *Hermes) onMCheckAck(from proto.NodeID, mc MCheckAck) {
	if h.staleEpoch(mc.Epoch) || !h.checkOpen || mc.Seq != h.checkSeq {
		return
	}
	h.checkAcks++
	h.maybeReleaseSpecReads()
}

func (h *Hermes) maybeReleaseSpecReads() {
	// Self counts toward the majority (the membership itself is maintained
	// by a majority-based protocol, §8).
	if h.checkAcks+1 < h.view.Quorum() {
		return
	}
	h.checkOpen = false
	n := h.checkUpTo
	if n > len(h.specReads) {
		n = len(h.specReads)
	}
	h.releaseSpecReads(n)
}

// flushSpecReadsOnCommit releases all speculative reads: a commit's ACK
// gathering strictly follows every queued read, and acknowledgments from all
// live replicas subsume the majority proof §8 requires.
func (h *Hermes) flushSpecReadsOnCommit() {
	// Gated on pending reads, not cfg.NoLSC: a commit proof is equally valid
	// for reads queued before a SetNoLSC(false) flip.
	if len(h.specReads) == 0 {
		return
	}
	h.metrics.SpecReadsFlushedByWrite += uint64(len(h.specReads))
	h.releaseSpecReads(len(h.specReads))
}

func (h *Hermes) releaseSpecReads(n int) {
	for i := 0; i < n; i++ {
		sr := h.specReads[i]
		h.env.Complete(proto.Completion{OpID: sr.op.ID, Kind: proto.OpRead, Key: sr.op.Key, Status: proto.OK, Value: sr.val})
	}
	h.specReads = h.specReads[n:]
	if len(h.specReads) == 0 {
		h.specReads = nil
		h.checkOpen = false
	} else if h.checkUpTo > n {
		h.checkUpTo -= n
	} else {
		h.checkUpTo = 0
	}
}

// --- §3.4 Recovery: shadow replica state transfer ---

// fetchChunkKeys is the state-transfer chunk size (ChunkReq.MaxKeys).
const fetchChunkKeys = 512

func (h *Hermes) fetchNextChunk() {
	members := h.view.Others(h.id)
	if len(members) == 0 {
		return
	}
	// Spread chunk reads across members, as the paper's recovery does.
	from := members[h.fetchChunks%len(members)]
	h.fetchBusy = true
	h.fetchRetryAt = h.env.Now() + h.cfg.MLT
	h.env.Send(from, ChunkReq{Epoch: h.view.Epoch, Cursor: h.fetchCursor, MaxKeys: fetchChunkKeys})
}

func (h *Hermes) onChunkReq(from proto.NodeID, req ChunkReq) {
	if h.staleEpoch(req.Epoch) {
		return
	}
	// Cursor is the lowest key the learner still needs; the reply holds the
	// MaxKeys smallest keys at or above it, ascending. Key order is the one
	// order every member agrees on, so chunks read from different members
	// tile the keyspace; keys added concurrently also reach the learner via
	// INVs, and the timestamp check absorbs any overlap.
	limit := max(req.MaxKeys, 1)
	var keys []proto.Key
	more := false // keys beyond the reply exist
	trim := func() {
		slices.Sort(keys)
		if len(keys) > limit {
			keys, more = keys[:limit], true
		}
	}
	h.store.Range(func(k proto.Key, _ *kvs.Slot) bool {
		if uint64(k) >= req.Cursor {
			if keys = append(keys, k); len(keys) >= 2*limit {
				trim()
			}
		}
		return true
	})
	trim()
	resp := ChunkResp{Epoch: h.view.Epoch, Cursor: req.Cursor, Done: !more}
	for _, k := range keys {
		e, _ := h.store.Get(k)
		// safeVal, not e.Value: the response is encoded asynchronously by the
		// transport, and an owner-backed value's pooled frame may be recycled
		// the moment a newer update replaces this entry — shipping the live
		// slice would serialize whatever the pool's next frame holds into the
		// learner's store (the chunk-transfer aliasing bug).
		resp.Keys = append(resp.Keys, k)
		resp.Recs = append(resp.Recs, ChunkRec{TS: e.TS, Value: safeVal(e), RMW: e.RMW, Invalid: e.State != kvs.Valid})
	}
	h.env.Send(from, resp)
}

func (h *Hermes) onChunkResp(from proto.NodeID, resp ChunkResp) {
	if h.staleEpoch(resp.Epoch) || !h.learner || h.fetchDone {
		return
	}
	if resp.Cursor != h.fetchCursor {
		return // response to a superseded (retried) request
	}
	h.fetchBusy = false
	for i, k := range resp.Keys {
		rec := resp.Recs[i]
		if hd, ok := h.store.Lookup(k).Head(); ok && !rec.TS.After(hd.TS) {
			continue // local copy is as new or newer (heard via INV)
		}
		st := kvs.Valid
		if rec.Invalid {
			st = kvs.Invalid
		}
		// rec.Value is private: wire-decoded ChunkRec values are heap copies,
		// and an in-process sender built them with safeVal — adopt directly.
		h.store.Update(k, kvs.Entry{Value: rec.Value, TS: rec.TS, State: st, RMW: rec.RMW})
	}
	h.fetchChunks++
	if n := len(resp.Keys); n > 0 {
		last := uint64(resp.Keys[n-1])
		resp.Done = resp.Done || last == math.MaxUint64
		h.fetchCursor = last + 1
	}
	if resp.Done {
		h.fetchDone = true
		// Republish the read gate at the catch-up transition: still shut
		// (the learner serves no reads until the promoting m-update), but
		// the transition is the documented republication point.
		h.publishGate()
	}
}

// CaughtUp reports whether a learner has finished state transfer.
func (h *Hermes) CaughtUp() bool { return h.fetchDone }
