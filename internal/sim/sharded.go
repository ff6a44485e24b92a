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
// cluster.ShardedNode runs an engine's turns on whichever goroutine delivers,
// submits or ticks, the simulator is single-threaded — the engines are simply
// distinct state machines behind one Replica facade, and CPU parallelism
// (when wanted) is modeled separately by Config.Workers.
//
// Routing, m-update addressing, the view log, the staggered rollout of
// node-wide views, epoch gossip, each engine's burst runner and its egress
// stager are shardhost's — the very code the live node runs, stepped here
// from virtual time — so the chaos harness exercises what ships. What stays
// here is the harness's: Submit, Tick and the knobs the fault script turns.
//
// Every exported method that can reach an engine runs the runners' windows
// and hands their egress off when it returns, so one simulator event is one
// burst: what a live shard runs when its queues hold what the event carries.
// Like the live shard, it gathers nothing over a tick except VALs alone,
// which wait for company until the next INV or ACK to their peer or the end
// of the next Tick (shardhost.Egress), and leave before an install.
type ShardedReplica struct {
	id   proto.NodeID
	w    int
	env  proto.Env
	run  []*shardhost.Runner
	out  []*shardhost.Egress // engine i's Env
	host *shardhost.Host
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
		run := shardhost.NewRunner(uint16(i), env, wire, core.Config{
			ID: id, View: view.Clone(), MLT: cfg.MLT, NoLSC: cfg.NoLSC, Learner: cfg.Learner,
		})
		r.run = append(r.run, run)
		r.out = append(r.out, run.Egress())
	}
	r.host = shardhost.New(id, w, view, cfg.MLT, replicaDriver{r})
	r.host.Stagger = rolloutStagger
	return r
}

// replicaDriver lends the host the runners and the wire: a delivery goes in
// its shard's window, and an install joins it and runs the window at once, so
// it has landed when Install returns.
type replicaDriver struct{ r *ShardedReplica }

func (d replicaDriver) Deliver(shard int, from proto.NodeID, msg any) {
	d.r.run[shard].Deliver(from, msg)
}
func (d replicaDriver) Install(shard int, v proto.View) {
	d.r.run[shard].Deliver(d.r.id, shardhost.InstallMsg{View: v})
	d.r.run[shard].Run()
}
func (d replicaDriver) Epoch(shard int) uint32        { return d.r.Engine(shard).View().Epoch }
func (d replicaDriver) Send(to proto.NodeID, msg any) { d.r.env.Send(to, msg) }

// Load is the engine's client ops so far — the simulator's counterpart of
// the live ShardedNode.ShardLoads.
func (d replicaDriver) Load(shard int) uint64 {
	m := d.r.Engine(shard).Metrics()
	return m.Reads + m.Writes + m.RMWs
}

// ID implements proto.Replica.
func (r *ShardedReplica) ID() proto.NodeID { return r.id }

// Shards returns the worker count W.
func (r *ShardedReplica) Shards() int { return r.w }

// Engine exposes shard i's state machine (metrics, tests).
func (r *ShardedReplica) Engine(i int) *core.Hermes { return r.run[i].Engine() }

// Submit implements proto.Replica: ops route to the engine owning the key.
func (r *ShardedReplica) Submit(op proto.ClientOp) {
	defer r.flush()
	r.run[proto.ShardOf(op.Key, r.w)].Submit(op, nil)
}

// Deliver implements proto.Replica: the host routes data-plane traffic to the
// owning engine and handles node-level membership messages itself.
func (r *ShardedReplica) Deliver(from proto.NodeID, msg any) {
	defer r.flush()
	r.host.Dispatch(from, msg, r.env.Now())
}

// flush ends a burst: every runner runs its window and hands its egress off,
// engine by engine.
func (r *ShardedReplica) flush() {
	for _, run := range r.run {
		run.Run()
		run.HandOff(false)
	}
}

// HostStats snapshots the control-plane counters (roll, view log, gossip).
func (r *ShardedReplica) HostStats() shardhost.Stats { return r.host.Stats() }

// Tick implements proto.Replica: the engines' timers, then the control
// plane's step (roll install, gossip announcement), then every stage leaves,
// the VALs still waiting for company included.
func (r *ShardedReplica) Tick() {
	for _, run := range r.run {
		run.Engine().Tick()
	}
	r.host.Step(r.env.Now())
	for _, run := range r.run {
		run.HandOff(true)
	}
}

// SetNoLSC flips §8 clock-free read mode on every engine at runtime (the
// gate closes or reopens accordingly; queued speculative reads still drain).
func (r *ShardedReplica) SetNoLSC(on bool) {
	defer r.flush()
	for _, run := range r.run {
		run.Engine().SetNoLSC(on)
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
	for _, run := range r.run {
		run.Engine().SetOperational(ok)
	}
}

// CaughtUp reports whether every learner engine finished state transfer.
func (r *ShardedReplica) CaughtUp() bool {
	for _, run := range r.run {
		if !run.Engine().CaughtUp() {
			return false
		}
	}
	return true
}

// ShardEpochs reports each engine's current membership epoch; with per-shard
// installs they may legitimately differ.
func (r *ShardedReplica) ShardEpochs() []uint32 { return r.host.Epochs() }
