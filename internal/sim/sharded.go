package sim

import (
	"slices"
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
// node-wide views, epoch gossip and each engine's egress stager are
// shardhost's — the very code the live node runs, stepped here from virtual
// time — so the chaos harness exercises what ships. What stays here is the
// harness's: building the engines, Submit, Tick and the knobs the fault
// script turns.
//
// Every exported method that can reach an engine flushes the stagers when it
// returns, so one simulator event is one egress window: what the live shard
// loop does when its inbox holds one entry. The live loop never waits for
// company, and neither does this; gathering over a tick instead would hold
// every message for up to a tick (50 base latencies in the chaos suite).
type ShardedReplica struct {
	id      proto.NodeID
	w       int
	env     proto.Env
	engines []*core.Hermes
	out     []*shardhost.Egress // engine i's Env
	host    *shardhost.Host
}

// rolloutStagger spaces one replica's per-shard installs of a node-wide view
// (shardhost.Host.Stagger).
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
}

// NewShardedReplica builds a W-engine replica for host id on env.
func NewShardedReplica(id proto.NodeID, view proto.View, env proto.Env, cfg ShardedReplicaConfig) *ShardedReplica {
	w := cfg.Shards
	if w < 1 {
		w = 1
	}
	r := &ShardedReplica{id: id, w: w, env: env}
	// The network keeps what it is sent until delivery; the stager recycles
	// a batch's slice once wire returns, so a batch leaves with a copy.
	wire := func(to proto.NodeID, msg any) {
		if sb, ok := msg.(proto.ShardBatch); ok {
			msg = proto.ShardBatch{Msgs: slices.Clone(sb.Msgs)}
		}
		env.Send(to, msg)
	}
	for i := 0; i < w; i++ {
		out := shardhost.NewEgress(uint16(i), env, wire)
		r.out = append(r.out, out)
		r.engines = append(r.engines, core.New(core.Config{
			ID: id, View: view.Clone(), Env: out,
			MLT: cfg.MLT, NoLSC: cfg.NoLSC, Learner: cfg.Learner,
		}))
	}
	r.host = shardhost.New(id, w, view, cfg.MLT, replicaDriver{r})
	r.host.Stagger = rolloutStagger
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

// ID implements proto.Replica.
func (r *ShardedReplica) ID() proto.NodeID { return r.id }

// Shards returns the worker count W.
func (r *ShardedReplica) Shards() int { return r.w }

// Engine exposes shard i's state machine (metrics, tests).
func (r *ShardedReplica) Engine(i int) *core.Hermes { return r.engines[i] }

// Submit implements proto.Replica: ops route to the engine owning the key.
func (r *ShardedReplica) Submit(op proto.ClientOp) {
	defer r.flush()
	r.engines[proto.ShardOf(op.Key, r.w)].Submit(op)
}

// Deliver implements proto.Replica: the host routes data-plane traffic to the
// owning engine and handles node-level membership messages itself.
func (r *ShardedReplica) Deliver(from proto.NodeID, msg any) {
	defer r.flush()
	r.host.Dispatch(from, msg, r.env.Now())
}

// flush ends an egress window: every engine's stages leave, engine by engine.
func (r *ShardedReplica) flush() {
	for _, out := range r.out {
		out.Flush()
	}
}

// HostStats snapshots the control-plane counters (roll, view log, gossip).
func (r *ShardedReplica) HostStats() shardhost.Stats { return r.host.Stats() }

// Tick implements proto.Replica: the engines' timers, then the control
// plane's step (roll install, gossip announcement).
func (r *ShardedReplica) Tick() {
	defer r.flush()
	for _, e := range r.engines {
		e.Tick()
	}
	r.host.Step(r.env.Now())
}

// SetNoLSC flips §8 clock-free read mode on every engine at runtime (the
// gate closes or reopens accordingly; queued speculative reads still drain).
func (r *ShardedReplica) SetNoLSC(on bool) {
	defer r.flush()
	for _, e := range r.engines {
		e.SetNoLSC(on)
	}
}

// OnViewChange implements proto.Replica: a membership agent's decision is
// retained in the log, so this node can serve laggards, and rolled across the
// engines (see Tick) — the path a live node's agent decisions take.
func (r *ShardedReplica) OnViewChange(v proto.View) {
	defer r.flush()
	r.host.Install(proto.MUpdate{Shard: proto.AllShards, View: v})
}

// SetOperational flips the RM lease on every engine (lease loss is a
// node-level event).
func (r *ShardedReplica) SetOperational(ok bool) {
	defer r.flush()
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
