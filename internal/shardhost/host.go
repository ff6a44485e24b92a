// Package shardhost is the deterministic, single-threaded part of a node
// hosting W core.Hermes engines (paper §4.1: one worker per keyspace
// partition): routing an arriving message to the shard that owns its key,
// installing an m-update on exactly the shards it addresses (§3.4 per-shard
// epochs), retaining and serving the view log, the epoch-gossip observer
// that makes a lagging node fast-forward itself, and the staggered rollout
// of node-wide views across the shards.
//
// It exists so this code is written once and run by both runtimes. The
// simulator (internal/sim) calls it directly; the live runtime
// (internal/cluster) wraps it with inbox goroutines, coalescers and timers.
// The chaos sweeps therefore exercise the code hermes-node ships, not a
// mirror of it.
//
// Three parts:
//
//   - Route is the data plane and is stateless — a pure function of (w, msg)
//     — so the live per-message path takes no lock and allocates nothing.
//   - Host is the control plane (view log, gossip candidate and debounce,
//     counters): one struct with no goroutines, no locks and no wall clock.
//     Time comes in as an argument, effects go out through Driver. A
//     concurrent runtime serializes calls to it with one mutex of its own.
//   - Roller holds the rollout's rules (epoch floor, supersede, fenced-node
//     fallback, coolest-shard-first order) under the same contract: views
//     and the shards' epochs and loads come in as arguments, and each call
//     returns the next install for the runtime to perform.
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
	// Install applies an m-update to shard's engine (OnViewChange).
	Install(shard int, v proto.View)
	// Epoch reports shard's current membership epoch.
	Epoch(shard int) uint32
	// Send puts a node-level (never shard-tagged) message on the wire.
	Send(to proto.NodeID, msg any)
}

// OwnerOf maps a protocol message to the shard owning it on a w-shard node.
// Key-carrying messages hash their key; instance-scoped traffic (membership
// checks, state-transfer chunks) has no key and keeps dflt — the sender's
// tag for tagged messages, shard 0 (where a W=1 peer's single engine lives)
// for untagged ones.
func OwnerOf(w int, msg any, dflt uint16) uint16 {
	if w == 1 {
		return 0
	}
	switch m := msg.(type) {
	case core.INV:
		return proto.ShardOf(m.Key, w)
	case core.ACK:
		return proto.ShardOf(m.Key, w)
	case core.VAL:
		return proto.ShardOf(m.Key, w)
	}
	return dflt
}

// Route delivers a data-plane message to the shard that owns it and reports
// true; node-level control messages (MUpdate, ViewLogReq, ViewLogResp,
// EpochGossip) are left for Host.Dispatch and report false.
//
// Tagged messages are delivered only when the tag matches the local owner of
// the key they carry: a peer configured with a different W computes
// different owners, and delivering its traffic to a non-owner shard would
// store values no reader ever consults — silent lost updates. Dropping
// instead makes a W mismatch stall safely (the sender's MLT keeps
// retransmitting) rather than corrupt. Untagged messages — from a W=1 peer,
// the one supported mixed deployment — route by key the same way.
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
		d.Deliver(int(OwnerOf(w, msg, 0)), from, msg)
	}
	return true
}

func routeTagged(w int, d Driver, from proto.NodeID, sm proto.ShardMsg) {
	if int(sm.Shard) < w && OwnerOf(w, sm.Msg, sm.Shard) == sm.Shard {
		d.Deliver(int(sm.Shard), from, sm.Msg)
		return
	}
	// Mis-tagged drop (W mismatch): spend the frame references wings decode
	// retained for the message's values, like every other drop path.
	core.ReleaseMsgOwners(sm.Msg)
}

// ViewLogCap bounds the retained view log: reconfiguration is control-plane
// rare, and a laggard further behind rejoins through the learner arc anyway.
const ViewLogCap = 64

// Stats are the host's control-plane counters.
type Stats struct {
	// FFRequests counts view-log fetches issued (FastForward); FFServed
	// counts log entries served to peers; FFApplied counts fetched entries
	// whose replay advanced a local shard's epoch.
	FFRequests, FFServed, FFApplied uint64
	// GossipRecv counts epoch vectors observed; GossipBehind counts those
	// showing a peer strictly ahead; GossipFF counts the debounced fetches
	// they issued (the self-healing trigger firing).
	GossipRecv, GossipBehind, GossipFF uint64
}

// Host is the control-plane state of one W-shard node. Not safe for
// concurrent use.
type Host struct {
	w   int
	drv Driver

	// NodeView, when set, receives node-wide (AllShards) m-updates instead of
	// the default install-on-every-shard fan-out — the one routing decision
	// with two behaviours: a Roller (the simulator's, or a live rollout
	// controller's) staggers the view across the shards one read gate at a
	// time.
	NodeView func(v proto.View)

	// Debounce rate-limits gossip-triggered fast-forwards: at most one fetch
	// per window (see ObserveGossip).
	Debounce time.Duration

	// vlog is the bounded view log: every membership update this node has
	// seen, in arrival order with exact duplicates elided. A rejoining or
	// lagging peer replays its gap from here via proto.ViewLogReq.
	vlog []proto.MUpdate

	// The debounce horizon and the best fast-forward candidate seen during
	// the current window (newest peer preferred — the one advertising the
	// highest epoch provably retains the longest log suffix).
	ffNotBefore time.Duration
	candPeer    proto.NodeID
	candEpoch   uint32
	haveCand    bool

	stats Stats
}

// New builds the host of a w-shard node over drv; the runtime sets NodeView
// and Debounce as it needs them.
func New(w int, drv Driver) *Host {
	return &Host{w: w, drv: drv}
}

// Stats snapshots the counters.
func (h *Host) Stats() Stats { return h.stats }

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
		// updates above its epoch that concern the shard it asks about.
		// ALWAYS answer — an empty ViewLogResp is the legal "nothing newer" —
		// because the request consumed a send credit on the requester's link
		// that only the response repays.
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

// Install retains an m-update in the view log and installs it on exactly the
// shards it addresses; out-of-range targets drop, like a mis-tagged
// ShardMsg. Wire m-updates and replayed fetches come through here, and a
// single-threaded runtime uses it for its direct installs too.
func (h *Host) Install(m proto.MUpdate) {
	h.Record(m)
	switch {
	case m.Shard == proto.AllShards:
		if h.NodeView != nil {
			h.NodeView(m.View)
			return
		}
		for s := 0; s < h.w; s++ {
			h.drv.Install(s, m.View)
		}
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
// by its own means (a blocking install, a staggered rollout) or merely knows
// was decided, so any node that saw an epoch can serve it to a laggard.
func (h *Host) Record(m proto.MUpdate) {
	for _, have := range h.vlog {
		if have.Shard == m.Shard && have.View.Epoch == m.View.Epoch {
			return
		}
	}
	h.vlog = append(h.vlog, proto.MUpdate{Shard: m.Shard, View: m.View.Clone()})
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

// ObserveGossip is the receive side of epoch gossip (wire EpochGossip frames
// and membership-heartbeat piggybacks alike). If the peer's vector is
// strictly ahead of any local shard the peer becomes a fast-forward
// candidate; at most one fetch fires per debounce window, at the candidate
// advertising the highest epoch seen within it. Advisory only: the fetch's
// answer replays through the normal install path, so a lying vector can waste
// one request, never corrupt state.
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
	h.ffNotBefore = now + h.Debounce
	peer := h.candPeer
	h.haveCand, h.candEpoch = false, 0
	h.stats.GossipFF++
	h.FastForward(peer)
}
