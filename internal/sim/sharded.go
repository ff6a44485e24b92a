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
// Routing, m-update addressing, the view log, the staggered rollout of
// node-wide views and epoch gossip are shardhost's — the very code the live
// node runs, stepped here from virtual time — so the chaos harness exercises
// what ships. What stays here is the harness's: building the engines, Submit,
// Tick and the knobs the fault script turns.
type ShardedReplica struct {
	id      proto.NodeID
	w       int
	env     proto.Env
	engines []*core.Hermes
	host    *shardhost.Host
	peers   []proto.NodeID // Peers' buffer
}

const (
	// rolloutStagger spaces one replica's per-shard installs of a node-wide
	// view (shardhost.Host.Stagger).
	rolloutStagger = 150 * time.Microsecond
	// gossipEvery paces every replica's epoch-vector announcements to the
	// members and learners of its newest known view
	// (shardhost.Host.GossipEvery). A receiver that observes itself behind
	// issues its own view-log fetch, debounced to one per 4 x gossipEvery: the
	// simulator's only lag-recovery path.
	gossipEvery = 250 * time.Microsecond
)

// ShardedReplicaConfig parameterizes NewShardedReplica. MLT and NoLSC mean
// what they do on core.Config.
type ShardedReplicaConfig struct {
	Shards int
	MLT    time.Duration
	NoLSC  bool
	// Learner starts every engine as a shadow replica (§3.4 Recovery) — the
	// state a crashed node rejoins in.
	Learner bool
}

// shardReplicaEnv is one engine's window to the host env: it tags outgoing
// messages with the engine's shard index.
type shardReplicaEnv struct {
	env proto.Env
	idx uint16
}

func (e shardReplicaEnv) Now() time.Duration { return e.env.Now() }
func (e shardReplicaEnv) Send(to proto.NodeID, msg any) {
	e.env.Send(to, proto.ShardMsg{Shard: e.idx, Msg: msg})
}
func (e shardReplicaEnv) Complete(c proto.Completion) { e.env.Complete(c) }

// NewShardedReplica builds a W-engine replica for host id on env.
func NewShardedReplica(id proto.NodeID, view proto.View, env proto.Env, cfg ShardedReplicaConfig) *ShardedReplica {
	w := cfg.Shards
	if w < 1 {
		w = 1
	}
	r := &ShardedReplica{id: id, w: w, env: env}
	for i := 0; i < w; i++ {
		r.engines = append(r.engines, core.New(core.Config{
			ID: id, View: view.Clone(),
			Env: shardReplicaEnv{env: env, idx: uint16(i)},
			MLT: cfg.MLT, NoLSC: cfg.NoLSC, Learner: cfg.Learner,
		}))
	}
	r.host = shardhost.New(id, w, replicaDriver{r})
	r.host.Stagger = rolloutStagger
	r.host.GossipEvery = gossipEvery
	return r
}

// replicaDriver lends the host the engines and the wire: deliveries and
// installs are direct calls into the state machines, so an install has landed
// when it returns.
type replicaDriver struct{ r *ShardedReplica }

func (d replicaDriver) Deliver(shard int, from proto.NodeID, msg any) {
	d.r.engines[shard].Deliver(from, msg)
}
func (d replicaDriver) Install(shard int, v proto.View) { d.r.engines[shard].OnViewChange(v) }
func (d replicaDriver) Epoch(shard int) uint32          { return d.r.engines[shard].View().Epoch }
func (d replicaDriver) Send(to proto.NodeID, msg any)   { d.r.env.Send(to, msg) }

// Load is the engine's client ops so far — the simulator's counterpart of
// the live ShardedNode.ShardLoads.
func (d replicaDriver) Load(shard int) uint64 {
	m := d.r.engines[shard].Metrics()
	return m.Reads + m.Writes + m.RMWs
}

// Peers are the members, then the learners, of the replica's newest known
// view: the shards may differ mid-roll, and the highest epoch is the best
// notion this node has of current membership.
func (d replicaDriver) Peers() []proto.NodeID {
	v := d.r.engines[0].View()
	for _, e := range d.r.engines[1:] {
		if ev := e.View(); ev.Epoch > v.Epoch {
			v = ev
		}
	}
	d.r.peers = append(append(d.r.peers[:0], v.Members...), v.Learners...)
	return d.r.peers
}

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

// HostStats snapshots the control-plane counters (roll, view log, gossip).
func (r *ShardedReplica) HostStats() shardhost.Stats { return r.host.Stats() }

// Tick implements proto.Replica: the engines' timers, then the control
// plane's step (roll install, gossip announcement).
func (r *ShardedReplica) Tick() {
	for _, e := range r.engines {
		e.Tick()
	}
	r.host.Step(r.env.Now())
}

// ObserveEpochGossip feeds a heartbeat-piggybacked epoch vector
// (membership.Config.OnPeerAhead) to the same observer wire gossip frames
// reach through Deliver.
func (r *ShardedReplica) ObserveEpochGossip(from proto.NodeID, epochs []uint32) {
	r.host.ObserveGossip(from, epochs, r.env.Now())
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
// engines (see Tick) — the path a live node's agent decisions take.
func (r *ShardedReplica) OnViewChange(v proto.View) {
	r.host.Install(proto.MUpdate{Shard: proto.AllShards, View: v})
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
