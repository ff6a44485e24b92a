package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/shardhost"
)

// ShardedReplica is the simulator's driver of shardhost: one host running W
// independent core.Hermes engines, each owning the keyspace partition
// proto.ShardOf selects, with per-shard membership epochs. Where the live
// cluster.ShardedNode gives every engine its own event-loop goroutine, the
// simulator is single-threaded — the engines are simply distinct state
// machines behind one Replica facade, and CPU parallelism (when wanted) is
// modeled separately by Config.Workers.
//
// Routing, m-update addressing, the view log, the epoch-gossip observer and
// the staggered rollout of node-wide views are shardhost's — the very code the
// live node runs — so the chaos harness exercises what ships. What stays here
// is the harness's: building the engines, Submit, Tick (timers, roll steps
// and the gossip announcement) and the knobs the fault script turns.
type ShardedReplica struct {
	id      proto.NodeID
	w       int
	env     proto.Env
	engines []*core.Hermes
	host    *shardhost.Host

	// roller receives every node-wide view, decided (OnViewChange) or
	// arriving through Deliver, as a live node's rollout controller does;
	// Tick performs the installs it calls for, the next one no earlier than
	// nextRoll.
	roller   *shardhost.Roller
	nextRoll time.Duration

	// gossipEvery paces the epoch-vector announcements Tick sends;
	// nextGossip is the send horizon and gossipSent counts them.
	gossipEvery time.Duration
	nextGossip  time.Duration
	gossipSent  uint64
}

// rolloutStagger spaces one replica's per-shard installs of a node-wide view:
// Tick performs at most one per window.
const rolloutStagger = 150 * time.Microsecond

// ShardedReplicaConfig parameterizes NewShardedReplica. MLT and NoLSC mean
// what they do on core.Config.
type ShardedReplicaConfig struct {
	Shards int
	MLT    time.Duration
	NoLSC  bool
	// Learner starts every engine as a shadow replica (§3.4 Recovery) — the
	// state a crashed node rejoins in.
	Learner bool
	// GossipEvery, when positive, announces this replica's per-shard epoch
	// vector (proto.EpochGossip) to the members and learners of its newest
	// known view on that period, from Tick — the sim counterpart of the live
	// controller's gossip loop. A receiver that observes itself behind
	// issues its own debounced view-log fetch: self-healing with no harness
	// backstop. Gossip-triggered fetches are debounced to one per
	// 4 x GossipEvery.
	GossipEvery time.Duration
}

// shardReplicaEnv is one engine's window to the host env: it tags outgoing
// messages with the engine's shard index (unless W=1, which stays
// wire-identical to an unsharded replica).
type shardReplicaEnv struct {
	env proto.Env
	idx uint16
	w   int
}

func (e shardReplicaEnv) Now() time.Duration { return e.env.Now() }
func (e shardReplicaEnv) Send(to proto.NodeID, msg any) {
	if e.w == 1 {
		e.env.Send(to, msg)
		return
	}
	e.env.Send(to, proto.ShardMsg{Shard: e.idx, Msg: msg})
}
func (e shardReplicaEnv) Complete(c proto.Completion) { e.env.Complete(c) }

// NewShardedReplica builds a W-engine replica for host id on env.
func NewShardedReplica(id proto.NodeID, view proto.View, env proto.Env, cfg ShardedReplicaConfig) *ShardedReplica {
	w := cfg.Shards
	if w < 1 {
		w = 1
	}
	r := &ShardedReplica{id: id, w: w, env: env, gossipEvery: cfg.GossipEvery}
	for i := 0; i < w; i++ {
		r.engines = append(r.engines, core.New(core.Config{
			ID: id, View: view.Clone(),
			Env: shardReplicaEnv{env: env, idx: uint16(i), w: w},
			MLT: cfg.MLT, NoLSC: cfg.NoLSC, Learner: cfg.Learner,
		}))
	}
	r.host = shardhost.New(w, replicaDriver{r})
	r.host.Debounce = 4 * cfg.GossipEvery
	if r.host.Debounce <= 0 {
		r.host.Debounce = 4 * time.Millisecond
	}
	r.roller = shardhost.NewRoller(id, r.ShardEpochs(), r.loads())
	r.host.NodeView = r.roller.Accept
	return r
}

// replicaDriver lends the host the engines and the wire: deliveries and
// installs are direct calls into the state machines.
type replicaDriver struct{ r *ShardedReplica }

func (d replicaDriver) Deliver(shard int, from proto.NodeID, msg any) {
	d.r.engines[shard].Deliver(from, msg)
}
func (d replicaDriver) Install(shard int, v proto.View) { d.r.engines[shard].OnViewChange(v) }
func (d replicaDriver) Epoch(shard int) uint32          { return d.r.engines[shard].View().Epoch }
func (d replicaDriver) Send(to proto.NodeID, msg any)   { d.r.env.Send(to, msg) }

// ID implements proto.Replica.
func (r *ShardedReplica) ID() proto.NodeID { return r.id }

// Shards returns the worker count W.
func (r *ShardedReplica) Shards() int { return r.w }

// Engine exposes shard i's state machine (metrics, tests).
func (r *ShardedReplica) Engine(i int) *core.Hermes { return r.engines[i] }

// Submit implements proto.Replica: ops route to the engine owning the key.
func (r *ShardedReplica) Submit(op proto.ClientOp) {
	r.engines[proto.ShardOf(op.Key, r.w)].Submit(op)
}

// Deliver implements proto.Replica: the host routes data-plane traffic to the
// owning engine and handles node-level membership messages itself.
func (r *ShardedReplica) Deliver(from proto.NodeID, msg any) {
	r.host.Dispatch(from, msg, r.env.Now())
}

// RecordView retains a membership update in the replica's view log without
// installing it. The chaos harness calls it on the deciding coordinator — the
// membership service durably knows its own decisions even when the wire
// loses the fan-out.
func (r *ShardedReplica) RecordView(m proto.MUpdate) { r.host.Record(m) }

// FastForwardStats reports the view-log counters: entries served to peers
// and fetched entries that advanced a local epoch.
func (r *ShardedReplica) FastForwardStats() (served, applied uint64) {
	st := r.host.Stats()
	return st.FFServed, st.FFApplied
}

// Tick implements proto.Replica.
func (r *ShardedReplica) Tick() {
	for _, e := range r.engines {
		e.Tick()
	}
	now := r.env.Now()
	if now >= r.nextRoll && r.roller.Rolling() {
		if m, ok := r.roller.Next(r.ShardEpochs(), r.loads()); ok {
			r.nextRoll = now + rolloutStagger
			for s, e := range r.engines {
				if m.Shard == proto.AllShards || int(m.Shard) == s {
					e.OnViewChange(m.View)
				}
			}
		}
	}
	if r.gossipEvery > 0 && now >= r.nextGossip {
		r.nextGossip = now + r.gossipEvery
		r.gossip()
	}
}

// gossip announces this replica's per-shard epoch vector to the members and
// learners of its newest known view (minus self) — the sim counterpart of
// the live controller's gossip loop. Gossip is node-level routing: it is
// sent bare, never shard-tagged.
func (r *ShardedReplica) gossip() {
	v := r.newestView()
	eg := proto.EpochGossip{Epochs: r.ShardEpochs()}
	for _, n := range v.Members {
		if n != r.id {
			r.gossipSent++
			r.env.Send(n, eg)
		}
	}
	for _, n := range v.Learners {
		if n != r.id {
			r.gossipSent++
			r.env.Send(n, eg)
		}
	}
}

// newestView returns the highest-epoch view among the engines — the best
// notion this node has of current membership (shards may differ mid-roll).
func (r *ShardedReplica) newestView() proto.View {
	best := r.engines[0].View()
	for _, e := range r.engines[1:] {
		if v := e.View(); v.Epoch > best.Epoch {
			best = v
		}
	}
	return best
}

// ObserveEpochGossip feeds a heartbeat-piggybacked epoch vector
// (membership.Config.OnPeerAhead) to the same observer wire gossip frames
// reach through Deliver.
func (r *ShardedReplica) ObserveEpochGossip(from proto.NodeID, epochs []uint32) {
	r.host.ObserveGossip(from, epochs, r.env.Now())
}

// GossipStats reports the epoch-gossip counters: vectors announced, peer-
// ahead observations, and debounced fetches issued.
func (r *ShardedReplica) GossipStats() (sent, behind, ff uint64) {
	st := r.host.Stats()
	return r.gossipSent, st.GossipBehind, st.GossipFF
}

// SetNoLSC flips §8 clock-free read mode on every engine at runtime (the
// gate closes or reopens accordingly; queued speculative reads still drain).
func (r *ShardedReplica) SetNoLSC(on bool) {
	for _, e := range r.engines {
		e.SetNoLSC(on)
	}
}

// OnViewChange implements proto.Replica: a membership agent's decision is
// retained in the log, so this node can serve laggards, and rolled across the
// engines (see Tick) — the path a live node's rollout controller takes.
func (r *ShardedReplica) OnViewChange(v proto.View) {
	r.host.Install(proto.MUpdate{Shard: proto.AllShards, View: v})
}

// loads reports each engine's client ops so far — the simulator's counterpart
// of the live ShardedNode.ShardLoads.
func (r *ShardedReplica) loads() []uint64 {
	out := make([]uint64, r.w)
	for i, e := range r.engines {
		m := e.Metrics()
		out[i] = m.Reads + m.Writes + m.RMWs
	}
	return out
}

// SetOperational flips the RM lease on every engine (lease loss is a
// node-level event).
func (r *ShardedReplica) SetOperational(ok bool) {
	for _, e := range r.engines {
		e.SetOperational(ok)
	}
}

// CaughtUp reports whether every learner engine finished state transfer.
func (r *ShardedReplica) CaughtUp() bool {
	for _, e := range r.engines {
		if !e.CaughtUp() {
			return false
		}
	}
	return true
}

// ShardEpochs reports each engine's current membership epoch; with per-shard
// installs they may legitimately differ.
func (r *ShardedReplica) ShardEpochs() []uint32 { return r.host.Epochs() }
