// Package shardhost is the deterministic, single-threaded part of a node
// hosting W core.Hermes engines (paper §4.1: one worker per keyspace
// partition): routing an arriving message to the shard that owns its key,
// installing an m-update on exactly the shards it addresses (§3.4 per-shard
// epochs), retaining and serving the view log, rolling node-wide views across
// the shards, announcing the node's epochs and observing its peers' — the
// epoch gossip that makes a lagging node fast-forward itself — running each
// engine's turns in windows, and staging its outgoing messages into per-peer
// batches.
//
// It exists so this code is written once and run by both runtimes. The
// simulator (internal/sim) calls it from virtual time; the live runtime
// (internal/cluster) wraps it with per-shard queues and engine locks, the
// goroutines that run turns where they find them, and one control goroutine
// per node. The chaos sweeps therefore exercise the code hermes-node ships,
// not a mirror of it.
//
// Five parts:
//
//   - Route is the data plane and is stateless — a pure function of (w, msg)
//     — so the live per-message path takes no lock and allocates nothing.
//   - Host is the control plane: one struct with no goroutines, no locks and
//     no wall clock. Messages come in through Dispatch, time through Step,
//     and effects go out through Driver. Step is the control plane's clock:
//     it performs the roll's next install and the gossip announcement when
//     they are due. Gossip has no setting: its destinations are the newest
//     view the host holds and its period is GossipPeriod of the engines'
//     MLT. A concurrent runtime serializes calls with one mutex of its own.
//   - Roller holds the rollout's rules (epoch floor, supersede, fenced-node
//     fallback, coolest-shard-first order, one install in flight) under the
//     same contract. Every node-wide view the Host meets — an agent's
//     decision, a wire MUpdate, a fetched log entry — goes to it; nothing
//     fans a node-wide view out to every shard at once except a view that
//     fences the node.
//   - Runner drives one engine: arrivals, installs and client ops go in, and
//     run in windows of at most BurstWindow — one prefetch pass, then the
//     turns, messages then ops, each in arrival order, an install after the
//     VALs it would strand have left — and the burst ends with the hand-off
//     that flushes the egress and counts what left. It starts no goroutine;
//     the live runtime calls it under a shard's engine lock, the simulator
//     with what each event carries.
//   - Egress is each engine's proto.Env and the node's egress policy: which
//     messages are staged (INVs, ACKs, VALs), when a stage leaves (one of
//     VALs alone waits for company), and where it is split. It holds no
//     lock, atomic or map; only the engine's turns call it, Flush ends a
//     window of turns — a live burst, or one simulator event — and FlushAll
//     ends a tick.
package shardhost

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// Driver is what a runtime lends the host: the W engines and the wire.
type Driver interface {
	// Deliver hands a protocol message to shard's engine.
	Deliver(shard int, from proto.NodeID, msg any)
	// Install applies an m-update to shard's engine (OnViewChange). It may
	// return before the transition runs; Epoch reports when it has.
	Install(shard int, v proto.View)
	// Epoch reports shard's current membership epoch.
	Epoch(shard int) uint32
	// Load reports the client ops shard has served so far; the roll orders
	// shards by its growth.
	Load(shard int) uint64
	// Send puts a node-level (never shard-tagged) message on the wire.
	Send(to proto.NodeID, msg any)
}

// OwnerOf maps a protocol message to the shard owning it on a w-shard node.
// Key-carrying messages hash their key; instance-scoped traffic (membership
// checks, state-transfer chunks) has no key and keeps tag, the sender's.
func OwnerOf(w int, msg any, tag uint16) uint16 {
	switch m := msg.(type) {
	case core.INV:
		return proto.ShardOf(m.Key, w)
	case core.ACK:
		return proto.ShardOf(m.Key, w)
	case core.VAL:
		return proto.ShardOf(m.Key, w)
	}
	return tag
}

// Route delivers a data-plane message to the shard that owns it and reports
// true; node-level control messages (MUpdate, ViewLogReq, ViewLogResp,
// EpochGossip) are left for Host.Dispatch and report false.
//
// Every shard host sends its data plane inside a ShardMsg or ShardBatch, at
// every W. A tagged message is delivered only when the tag matches the local
// owner of the key it carries: a peer configured with a different W computes
// different owners, and delivering its traffic to a non-owner shard would
// store values no reader ever consults — silent lost updates. Dropping
// instead makes a W mismatch stall safely (the sender's MLT keeps
// retransmitting) rather than corrupt. Anything else is not shard-host
// traffic (a stray client frame, a bare engine message) and drops too, so an
// engine is only ever handed what arrived inside an envelope.
func Route(w int, d Driver, from proto.NodeID, msg any) bool {
	switch m := msg.(type) {
	case proto.ShardBatch:
		// A coalesced frame fans out: each inner message goes to its owner
		// shard under the same tag check as a standalone tagged message.
		for _, sm := range m.Msgs {
			routeTagged(w, d, from, sm)
		}
	case proto.ShardMsg:
		routeTagged(w, d, from, m)
	case proto.MUpdate, proto.ViewLogReq, proto.ViewLogResp, proto.EpochGossip:
		return false
	default:
		// Untagged drop: spend the frame references wings decode retained for
		// the message's values, like every other drop path.
		core.ReleaseMsgOwners(msg)
	}
	return true
}

func routeTagged(w int, d Driver, from proto.NodeID, sm proto.ShardMsg) {
	if int(sm.Shard) < w && OwnerOf(w, sm.Msg, sm.Shard) == sm.Shard {
		d.Deliver(int(sm.Shard), from, sm.Msg)
		return
	}
	// Mis-tagged drop (W mismatch), released like the untagged one.
	core.ReleaseMsgOwners(sm.Msg)
}

// ViewLogCap bounds the retained view log: reconfiguration is control-plane
// rare, and a laggard further behind rejoins through the learner arc anyway.
const ViewLogCap = 64

// Stats are the node's control-plane counters.
type Stats struct {
	// The roll's counters.
	RollerStats
	// FFRequests counts view-log fetches issued (FastForward); FFServed
	// counts log entries served to peers; FFApplied counts fetched entries
	// whose replay advanced a local shard's epoch.
	FFRequests, FFServed, FFApplied uint64
	// GossipSent counts epoch vectors announced; GossipRecv counts those
	// observed; GossipBehind counts observations showing a peer strictly
	// ahead; GossipFF counts the debounced fetches they issued (the
	// self-healing trigger firing).
	GossipSent, GossipRecv, GossipBehind, GossipFF uint64
}

// GossipPeriod is how often a node whose engines run with message-loss
// timeout mlt announces its per-shard epochs: MLT/8, so a laggard hears of
// its gap well inside the time a stalled write waits before it retransmits.
// ObserveGossip's fast-forward debounce is four periods (MLT/2).
func GossipPeriod(mlt time.Duration) time.Duration { return mlt / 8 }

// Host is the control-plane state of one W-shard node. Not safe for
// concurrent use.
type Host struct {
	self proto.NodeID
	w    int
	drv  Driver

	// Stagger spaces the roll's installs: Step performs at most one per
	// window.
	Stagger time.Duration

	roller               *Roller
	gossipEvery          time.Duration
	nextRoll, nextGossip time.Duration

	// vlog is the bounded view log: every membership update this node has
	// seen, in arrival order with exact duplicates elided. A rejoining or
	// lagging peer replays its gap from here via proto.ViewLogReq.
	vlog []proto.MUpdate
	// view is the newest view the host holds — the initial one, or the
	// highest-epoch one it has recorded — whose members, then learners,
	// gossip is announced to: the shards may differ mid-roll, and the
	// highest epoch is the best notion this node has of current membership.
	view proto.View

	// The debounce horizon and the best fast-forward candidate seen during
	// the current window (newest peer preferred — the one advertising the
	// highest epoch provably retains the longest log suffix).
	ffNotBefore time.Duration
	candPeer    proto.NodeID
	candEpoch   uint32
	haveCand    bool

	stats Stats
}

// New builds the host of node self with w shards over drv, starting from
// view, whose engines run with message-loss timeout mlt (see GossipPeriod);
// the runtime sets Stagger. The roll's epoch floor and load baseline are the
// shards' as they stand now.
func New(self proto.NodeID, w int, view proto.View, mlt time.Duration, drv Driver) *Host {
	h := &Host{self: self, w: w, drv: drv, view: view.Clone(), gossipEvery: GossipPeriod(mlt)}
	h.roller = NewRoller(self, h.Epochs(), h.loads())
	return h
}

// Stats snapshots the counters.
func (h *Host) Stats() Stats {
	st := h.stats
	st.RollerStats = h.roller.Stats()
	return st
}

// Rolling reports whether a node-wide view is queued or under way, so Step
// has installs left to perform.
func (h *Host) Rolling() bool { return h.roller.Rolling() }

// Step advances the control plane to now: the roll's next install, if one is
// due and the previous one has landed, and the epoch-gossip announcement, if
// its period has passed. Epochs and loads are read only while a view rolls,
// so an idle Step reads nothing and allocates nothing.
func (h *Host) Step(now time.Duration) {
	if now >= h.nextRoll && h.roller.Rolling() {
		if m, ok := h.roller.Next(h.Epochs(), h.loads()); ok {
			h.nextRoll = now + h.Stagger
			for s := 0; s < h.w; s++ {
				if m.Shard == proto.AllShards || int(m.Shard) == s {
					h.drv.Install(s, m.View)
				}
			}
		}
	}
	if now >= h.nextGossip {
		h.nextGossip = now + h.gossipEvery
		h.announce()
	}
}

// announce sends this node's per-shard epochs to every member, then every
// learner, of the newest view it holds, self skipped.
func (h *Host) announce() {
	var eg proto.EpochGossip
	for _, ids := range [2][]proto.NodeID{h.view.Members, h.view.Learners} {
		for _, p := range ids {
			if p == h.self {
				continue
			}
			if eg.Epochs == nil {
				eg.Epochs = h.Epochs()
			}
			h.stats.GossipSent++
			h.drv.Send(p, eg)
		}
	}
}

// Dispatch is the arrival path: node-level control messages are handled
// here, everything else is data plane and goes through Route. A
// single-threaded runtime calls it for every message; a concurrent one calls
// Route first, lock-free, and Dispatch under its mutex only for what Route
// declines. now is the runtime's monotonic clock (virtual in the simulator).
func (h *Host) Dispatch(from proto.NodeID, msg any, now time.Duration) {
	switch m := msg.(type) {
	case proto.MUpdate:
		h.Install(m)
	case proto.ViewLogReq:
		// A lagging peer's fast-forward fetch: answer with the retained
		// updates above its epoch that concern the shard it asks about —
		// always, an empty ViewLogResp being the legal "nothing newer".
		var ups []proto.MUpdate
		for _, mu := range h.vlog {
			if mu.View.Epoch > m.Since &&
				(m.Shard == proto.AllShards || mu.Shard == proto.AllShards || mu.Shard == m.Shard) {
				ups = append(ups, mu)
			}
		}
		h.stats.FFServed += uint64(len(ups))
		h.drv.Send(from, proto.ViewLogResp{Updates: ups})
	case proto.ViewLogResp:
		// Replay the fetched gap through the normal install path, counting
		// only entries that advance an epoch (redeliveries are idempotent).
		for _, mu := range m.Updates {
			if h.advances(mu) {
				h.stats.FFApplied++
			}
			h.Install(mu)
		}
	case proto.EpochGossip:
		h.ObserveGossip(from, m.Epochs, now)
	default:
		Route(h.w, h.drv, from, msg)
	}
}

// Install retains an m-update in the view log and applies it: a node-wide
// view goes to the roll (Step performs it), a shard-scoped one installs on
// its shard at once, and an out-of-range target drops, like a mis-tagged
// ShardMsg. Agent decisions, wire m-updates and replayed fetches all come
// through here.
func (h *Host) Install(m proto.MUpdate) {
	h.Record(m)
	switch {
	case m.Shard == proto.AllShards:
		h.roller.Accept(m.View)
	case int(m.Shard) < h.w:
		h.drv.Install(int(m.Shard), m.View)
	}
}

// advances reports whether installing m would move some addressed shard's
// epoch forward.
func (h *Host) advances(m proto.MUpdate) bool {
	switch {
	case m.Shard == proto.AllShards:
		for s := 0; s < h.w; s++ {
			if h.drv.Epoch(s) < m.View.Epoch {
				return true
			}
		}
	case int(m.Shard) < h.w:
		return h.drv.Epoch(int(m.Shard)) < m.View.Epoch
	}
	return false
}

// Record retains a membership update in the bounded view log (exact
// duplicates elided) without installing it: for a view the runtime installs
// by its own means (a blocking install), so any node that saw an epoch can
// serve it to a laggard. A view newer than any the host holds also becomes
// gossip's destination list.
func (h *Host) Record(m proto.MUpdate) {
	for _, have := range h.vlog {
		if have.Shard == m.Shard && have.View.Epoch == m.View.Epoch {
			return
		}
	}
	mu := proto.MUpdate{Shard: m.Shard, View: m.View.Clone()}
	if mu.View.Epoch > h.view.Epoch {
		h.view = mu.View
	}
	h.vlog = append(h.vlog, mu)
	if len(h.vlog) > ViewLogCap {
		h.vlog = append(h.vlog[:0:0], h.vlog[len(h.vlog)-ViewLogCap:]...)
	}
}

// Epochs reports each shard's current membership epoch; with per-shard
// installs they may legitimately differ. It reads only the driver, never
// host state.
func (h *Host) Epochs() []uint32 {
	out := make([]uint32, h.w)
	for s := range out {
		out[s] = h.drv.Epoch(s)
	}
	return out
}

// loads reports each shard's client ops so far.
func (h *Host) loads() []uint64 {
	out := make([]uint64, h.w)
	for s := range out {
		out[s] = h.drv.Load(s)
	}
	return out
}

// FastForward asks peer for the epochs this node's most lagging shard has
// missed; the answer replays through Dispatch. Callers are whoever detects
// the lag: a rejoin path, the gossip observer, or a harness.
func (h *Host) FastForward(peer proto.NodeID) {
	since := h.drv.Epoch(0)
	for s := 1; s < h.w; s++ {
		if e := h.drv.Epoch(s); e < since {
			since = e
		}
	}
	h.stats.FFRequests++
	h.drv.Send(peer, proto.ViewLogReq{Shard: proto.AllShards, Since: since})
}

// ObserveGossip is the receive side of epoch gossip: Dispatch hands it every
// EpochGossip frame. If the peer's vector is strictly ahead of any local
// shard the peer becomes a fast-forward candidate; at most one fetch fires
// per debounce window of four gossip periods, at the candidate advertising
// the highest epoch seen within it. Advisory only: the fetch's answer
// replays through the normal install path, so a lying vector can waste one
// request, never corrupt state.
func (h *Host) ObserveGossip(from proto.NodeID, epochs []uint32, now time.Duration) {
	h.stats.GossipRecv++
	behind := false
	var peerMax, localMax uint32
	for s := 0; s < h.w; s++ {
		e := h.drv.Epoch(s)
		if e > localMax {
			localMax = e
		}
		if s < len(epochs) && epochs[s] > e {
			behind = true
		}
	}
	for _, e := range epochs {
		if e > peerMax {
			peerMax = e
		}
	}
	// W-mismatched peers (different vector lengths) still compare by their
	// highest epoch: views are node-wide decisions, so a peer whose maximum
	// is ahead has seen an epoch this node missed entirely.
	if peerMax > localMax {
		behind = true
	}
	if !behind {
		return
	}
	h.stats.GossipBehind++
	if !h.haveCand || peerMax > h.candEpoch {
		h.candPeer, h.candEpoch, h.haveCand = from, peerMax, true
	}
	if now < h.ffNotBefore {
		return
	}
	h.ffNotBefore = now + 4*h.gossipEvery
	peer := h.candPeer
	h.haveCand, h.candEpoch = false, 0
	h.stats.GossipFF++
	h.FastForward(peer)
}
