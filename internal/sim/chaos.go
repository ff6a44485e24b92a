package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/linear"
	"repro/internal/proto"
	"repro/internal/shardhost"
)

// This file is the deterministic reconfiguration chaos harness: a seeded
// schedule of node crashes, rejoins as learner, lease flips, view storms and
// gray faults, injected under a live read/write/RMW workload on a sharded
// Hermes cluster, with every key's history checked against the Wing–Gong
// linearizability oracle (internal/linear).
//
// The harness scripts reconfiguration but never decides it. Every scripted
// view is a proposal to a real membership.Agent; Paxos decides it over the
// same lossy network as the data traffic, each node's commit reaches its
// replica's shardhost.Roller, which staggers it across the shards, and a
// replica that missed a decision heals itself by epoch gossip and a view-log
// fetch. That is the code a live node runs.
//
// Everything (the fault schedule, the client mix, the network's loss and
// jitter) derives from ChaosConfig.Seed over virtual time, so a failing run
// replays exactly from its seed. (The protocol core cooperates: Tick and
// OnViewChange iterate per-key state in sorted order precisely so
// retransmission order cannot leak map randomness into the schedule.)

// ChaosConfig parameterizes one chaos run. The zero value of every field
// gets a sensible default; only Seed is required to vary runs.
type ChaosConfig struct {
	Seed            int64
	Nodes           int           // replica count (default 3)
	Shards          int           // engines per node (default 4)
	Keys            int           // keyspace size (default 12; small → real contention)
	SessionsPerNode int           // closed-loop clients per node (default 2)
	OpsPerSession   int           // ops each session issues (default 150)
	MLT             time.Duration // message-loss timeout (default 2ms)
	TickEvery       time.Duration // timer granularity (default 100µs)
	// Net models the fabric; the zero value becomes a lossy RDMA-class
	// network (1% loss, 0.5% duplication) — chaos without message loss
	// would never exercise replays.
	Net NetConfig

	// Fault injections. All off yields a plain workload run.
	CrashRejoin bool // crash a node, remove it, rejoin as learner, promote
	LeaseFlips  bool // temporarily revoke a node's RM lease
	ShardStorms bool // back-to-back membership-unchanged views, rolled shard by shard

	// RejoinBehind, with CrashRejoin, makes the crashed node miss that many
	// extra membership epochs while it is down and restart with its stale
	// pre-crash view — so it rejoins RejoinBehind+2 epochs behind and can
	// only catch up by fetching the peers' view logs (proto.ViewLogReq).
	// 0 rejoins at the current view, as a freshly told learner would.
	RejoinBehind int

	// Gray-failure vocabulary. These model the failures that hurt real
	// deployments but that fail-stop testing never speaks: nodes that are
	// neither up nor down, links that work in one direction, clocks that
	// run at the wrong rate.

	// AsymPartitions schedules one-way link cuts: A->B blocked while B->A
	// stays clean, installed and healed under load. The cut side's traffic
	// silently vanishes (Dropped) while the clean side keeps delivering —
	// the failure mode that defeats naive heartbeat detectors.
	AsymPartitions bool
	// SlowNodes schedules slow-but-alive windows: one node's messages (both
	// directions) stretch by a factor sized to straddle the MLT, so
	// retransmissions race their originals in flight — duplication and
	// reordering generated by the protocol itself, not the fabric.
	SlowNodes bool
	// ClockSkew schedules per-node clock-rate windows (0.25x–4x) applied to
	// everything the node derives from Env.Now — MLT retransmit deadlines,
	// tick cadence, lease windows — straining the loosely-synchronized-
	// clock assumption §8 exists to drop.
	ClockSkew bool
	// Reorder adds burst reordering to the network: a seeded fraction of
	// messages is held back long enough for later sends to overtake them
	// (counted in ChaosResult.Reordered), well beyond jitter's adjacent
	// swaps.
	Reorder bool
	// NoLSC runs every engine in §8 clock-free read mode: reads execute
	// speculatively and release only on a commit flush or majority MCheck —
	// the read-gate fast path stays structurally closed (FastHitsNoLSC must
	// be 0).
	NoLSC bool
	// RestoreLSC, with NoLSC, flips every live engine back to LSC mode
	// mid-run (SetNoLSC(false)): queued speculative reads must still drain
	// and the read gates must reopen (FastHitsRestored > 0, GatesOpen > 0).
	RestoreLSC bool
}

func (cfg *ChaosConfig) defaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 12
	}
	if cfg.SessionsPerNode <= 0 {
		cfg.SessionsPerNode = 2
	}
	if cfg.OpsPerSession <= 0 {
		cfg.OpsPerSession = 200
	}
	if cfg.MLT <= 0 {
		cfg.MLT = 2 * time.Millisecond
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 100 * time.Microsecond
	}
	if cfg.Net == (NetConfig{}) {
		cfg.Net = NetConfig{
			BaseLatency: 2 * time.Microsecond,
			Jitter:      500 * time.Nanosecond,
			LossProb:    0.01,
			DupProb:     0.005,
		}
	}
	if cfg.Reorder && cfg.Net.ReorderProb == 0 {
		cfg.Net.ReorderProb = 0.02
	}
}

// ChaosResult aggregates a run's observations. History holds every key's
// recorded operations (already checked by RunChaos); the counters summarize
// what the schedule actually exercised so scenario tests can assert they hit
// their target machinery.
type ChaosResult struct {
	Seed    int64
	Elapsed time.Duration // virtual time at the end of the run

	Ops, Reads, Writes, RMWs uint64 // completed, by class
	Aborts, Rejected         uint64 // RMW aborts; NotOperational rejections
	Abandoned                uint64 // ops given up on (crashed server) — pending in the history

	Crashes, Restarts, Promotions int
	Installs                      int // views the agents decided: final epoch − initial epoch

	// FFServed/FFApplied sum the replicas' log entries served to peers and
	// fetched entries that actually advanced an epoch. Nonzero FFApplied is
	// the proof a run recovered skipped epochs through the log rather than a
	// harness backdoor.
	FFServed, FFApplied uint64

	Replays, Retransmits, StaleEpochDrops uint64 // summed over engines

	// Gray-fault coverage counters: what the schedule actually installed, so
	// scenario tests can assert they exercised the machinery they target.
	AsymParts   int // one-way link cuts installed
	AsymHealed  int // ... and healed again
	SlowWindows int // slow-but-alive windows opened
	SkewEvents  int // clock-rate changes applied (excluding restores)

	Reordered uint64 // messages held back for burst reordering (Network.Reordered)

	// Batches counts the proto.ShardBatches the replicas' egress stagers
	// sent, over every incarnation (Network.Batches).
	Batches uint64

	// Teaching ACKs (summed over engines): ACK-without-apply responses that
	// carried the acker's outranking entry, and rival entries a coordinator
	// installed from them. Nonzero TaughtApplied means a run actually
	// exercised the stale-RMW-read shield (see core.ACK).
	TeachACKs, TaughtApplied uint64

	// Epoch-gossip self-healing: announcements sent, behind-observations, and
	// self-triggered view-log fetches, summed over live replicas. GossipFF is
	// the replicas healing themselves — the only lag-recovery path a run has.
	GossipSent, GossipBehind, GossipFF uint64

	// Rollout sums the live replicas' roll counters (shardhost.Roller):
	// every view, decided or fetched, rolls through them. Fingerprint leaves
	// them out.
	Rollout shardhost.RollerStats

	// §8 NoLSC instrumentation. FastProbes counts lock-free ReadLocal
	// attempts by the probe loop; FastHitsNoLSC counts those that hit while
	// the engines ran clock-free (the gate must make this exactly 0);
	// FastHitsRestored counts hits after a RestoreLSC flip (must be > 0 — the
	// gate reopened). GatesOpen counts engines whose read gate allowed the
	// fast path at the end of the run.
	FastProbes, FastHitsNoLSC, FastHitsRestored uint64
	GatesOpen                                   int
	MChecks, SpecFlushed                        uint64 // §8 releases, summed over engines

	FinalEpochs [][]uint32 // per live node, per shard
	History     *linear.History
}

// Fingerprint digests the run — every recorded operation with its timing and
// output, plus the final per-shard epochs — into one value. Two runs of the
// same seed must produce identical fingerprints; the determinism test pins
// that.
func (r *ChaosResult) Fingerprint() uint64 {
	h := fnv.New64a()
	w := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, k := range r.History.Keys() {
		w(uint64(k))
		for _, op := range r.History.Ops(k) {
			w(op.ID, uint64(op.Kind), uint64(op.Invoke), uint64(op.Return))
			h.Write(op.Arg)
			h.Write(op.Out)
		}
	}
	for _, es := range r.FinalEpochs {
		for _, e := range es {
			w(uint64(e))
		}
	}
	w(r.Ops, r.Aborts, r.Rejected, r.Abandoned, r.Replays)
	w(r.Reordered, r.GossipFF, r.FastHitsNoLSC, uint64(r.SkewEvents))
	return h.Sum64()
}

// chaosRun is the mutable harness state; everything mutates inside engine
// events, so no locking is needed (the simulator is single-threaded).
type chaosRun struct {
	cfg  ChaosConfig
	c    *Cluster
	rng  *rand.Rand
	hist *linear.History
	res  *ChaosResult

	alive       []bool
	leased      []bool
	learner     proto.NodeID // node currently rejoining, or NilNode
	outstanding map[uint64]func(proto.Completion)
	idSeq       uint64
	sessionsRun int // sessions still issuing
	scriptOpen  int // scheduled fault-script items not yet finished

	lscRestored bool // RestoreLSC has flipped the live engines back to LSC
	probeKey    int  // round-robin key cursor for the fast-path probe loop
}

// RunChaos executes one seeded chaos run and checks every key's history for
// linearizability. A non-nil error reports a safety violation (history not
// linearizable), an availability failure (final reads never completed) or a
// stuck run; the message embeds the seed for replay.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.defaults()
	r := &chaosRun{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		hist:        linear.NewHistory(),
		res:         &ChaosResult{Seed: cfg.Seed, History: nil},
		alive:       make([]bool, cfg.Nodes),
		leased:      make([]bool, cfg.Nodes),
		learner:     proto.NilNode,
		outstanding: make(map[uint64]func(proto.Completion)),
	}
	r.res.History = r.hist
	for i := range r.alive {
		r.alive[i] = true
		r.leased[i] = true
	}
	simCfg := Config{
		Nodes: cfg.Nodes,
		Factory: func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			return NewShardedReplica(id, view, env, ShardedReplicaConfig{
				Shards: cfg.Shards, MLT: cfg.MLT,
				NoLSC: cfg.NoLSC,
			})
		},
		Net:       cfg.Net,
		TickEvery: cfg.TickEvery,
		Seed:      cfg.Seed ^ 0xC0FFEE,
		// Real membership agents decide the views; suspicion and lease
		// windows are pushed out of reach so the *script* stays the only
		// source of reconfiguration (the agents' own failure detection would
		// otherwise race the schedule and break replayability of the
		// scenario shape).
		RM: &RMParams{
			HeartbeatEvery: 500 * time.Microsecond,
			SuspectAfter:   time.Hour,
			LeaseDur:       time.Hour,
		},
	}
	r.c = New(simCfg)

	// Client sessions: closed-loop read/write/RMW mix.
	for n := 0; n < cfg.Nodes; n++ {
		for s := 0; s < cfg.SessionsPerNode; s++ {
			sess := &chaosSession{
				r:         r,
				rng:       rand.New(rand.NewSource(cfg.Seed + int64(n)*131 + int64(s)*7919 + 1)),
				node:      proto.NodeID(n),
				remaining: cfg.OpsPerSession,
			}
			r.sessionsRun++
			start := time.Duration(1+r.rng.Intn(500)) * time.Microsecond
			r.c.eng.After(start, sess.next)
		}
	}
	r.scheduleFaults()

	// Drive until sessions and fault script complete (or declare the run
	// stuck — that too is a finding).
	const horizon = 3 * time.Second
	for r.sessionsRun > 0 || r.scriptOpen > 0 {
		if r.c.eng.Now() > horizon {
			return r.res, fmt.Errorf("chaos run stuck at %v: %d sessions, %d script items open (replay with seed %d)",
				r.c.eng.Now(), r.sessionsRun, r.scriptOpen, cfg.Seed)
		}
		r.c.eng.RunUntil(r.c.eng.Now() + 5*time.Millisecond)
	}

	// Epoch convergence: every live shard must reach the highest decided
	// epoch. Commits lost on the wire have exactly one recovery path — the
	// gossip-triggered view-log fetch — so a shard stuck behind here means
	// that path failed.
	if err := r.awaitConvergence(); err != nil {
		return r.res, err
	}

	// Availability epilogue: one read of every key at every serving member,
	// in node rounds (sequential per key across rounds, so divergence between
	// replicas cannot hide). These reads stall on Invalid keys and must be
	// completed by the replay machinery — that they finish at all is part of
	// the check.
	if err := r.finalReads(horizon); err != nil {
		return r.res, err
	}

	r.collectMetrics()
	r.res.Installs = int(r.view().Epoch - r.c.View().Epoch)
	r.hist.Close()
	if k, res, ok := r.hist.CheckAll(); !ok {
		return r.res, fmt.Errorf("history of key %d not linearizable: %s (replay with seed %d)", k, res.Info, cfg.Seed)
	}
	r.res.Elapsed = r.c.eng.Now()
	return r.res, nil
}

// --- fault script ---

// scheduleFaults lays out the seeded injection schedule. All randomness is
// drawn here and inside engine events, in deterministic order.
func (r *chaosRun) scheduleFaults() {
	if r.cfg.ShardStorms {
		for i := 0; i < 2; i++ {
			at := time.Duration(5+r.rng.Intn(30)) * time.Millisecond
			bursts := 3 + r.rng.Intn(3)
			gap := time.Duration(200+r.rng.Intn(600)) * time.Microsecond
			r.scriptOpen++
			r.c.eng.At(at, func() { r.storm(bursts, gap) })
		}
	}
	if r.cfg.LeaseFlips {
		for i := 0; i < 2; i++ {
			at := time.Duration(6+r.rng.Intn(25)) * time.Millisecond
			dur := time.Duration(2+r.rng.Intn(4)) * time.Millisecond
			r.scriptOpen++
			r.c.eng.At(at, func() { r.leaseFlip(dur) })
		}
	}
	if r.cfg.CrashRejoin {
		at := time.Duration(8+r.rng.Intn(8)) * time.Millisecond
		r.scriptOpen++
		r.c.eng.At(at, func() { r.crashCycle() })
	}
	if r.cfg.AsymPartitions {
		for i := 0; i < 2; i++ {
			at := time.Duration(4+r.rng.Intn(20)) * time.Millisecond
			dur := time.Duration(3+r.rng.Intn(5)) * time.Millisecond
			r.scriptOpen++
			r.c.eng.At(at, func() { r.asymPartition(dur) })
		}
	}
	if r.cfg.SlowNodes {
		for i := 0; i < 2; i++ {
			at := time.Duration(4+r.rng.Intn(20)) * time.Millisecond
			dur := time.Duration(2+r.rng.Intn(4)) * time.Millisecond
			r.scriptOpen++
			r.c.eng.At(at, func() { r.slowWindow(dur) })
		}
	}
	if r.cfg.ClockSkew {
		for i := 0; i < 3; i++ {
			at := time.Duration(3+r.rng.Intn(22)) * time.Millisecond
			dur := time.Duration(3+r.rng.Intn(6)) * time.Millisecond
			r.scriptOpen++
			r.c.eng.At(at, func() { r.skewWindow(dur) })
		}
	}
	if r.cfg.NoLSC && r.cfg.RestoreLSC {
		r.scriptOpen++
		r.c.eng.At(20*time.Millisecond, func() { r.restoreLSC() })
	}
	if r.cfg.NoLSC {
		// The probe loop is not a script item: it rides along while sessions
		// run and retires with them.
		r.c.eng.After(time.Millisecond, r.probeFastPath)
	}
}

// asymPartition installs a one-way cut a->b (b->a stays clean) for dur, then
// heals it. The pair is drawn seeded over all nodes — cutting a link to a
// crashed node is a no-op, and determinism matters more than vigor.
func (r *chaosRun) asymPartition(dur time.Duration) {
	a := proto.NodeID(r.rng.Intn(r.cfg.Nodes))
	b := proto.NodeID(r.rng.Intn(r.cfg.Nodes - 1))
	if b >= a {
		b++
	}
	r.c.net.SetLinkBlocked(a, b, true)
	r.res.AsymParts++
	r.c.eng.After(dur, func() {
		r.c.net.SetLinkBlocked(a, b, false)
		r.res.AsymHealed++
		r.scriptOpen--
	})
}

// slowWindow marks one node slow-but-alive for dur: every message it sends or
// receives stretches by a factor sized so a one-way hop straddles the MLT —
// retransmissions launch while their originals are still in flight, and the
// protocol must absorb its own duplicates.
func (r *chaosRun) slowWindow(dur time.Duration) {
	n := proto.NodeID(r.rng.Intn(r.cfg.Nodes))
	base := r.cfg.Net.BaseLatency
	if base <= 0 {
		base = 2 * time.Microsecond
	}
	f := (0.6 + r.rng.Float64()) * float64(r.cfg.MLT) / float64(base)
	if f < 2 {
		f = 2
	}
	r.c.net.SetNodeSlow(n, f)
	r.res.SlowWindows++
	r.c.eng.After(dur, func() {
		r.c.net.SetNodeSlow(n, 0)
		r.scriptOpen--
	})
}

// skewWindow runs one node's clock at the wrong rate for dur, then restores
// rate 1. Everything the node derives from Env.Now — MLT retransmit
// deadlines, tick cadence, lease arithmetic — speeds up or slows down with
// it; the network and the engine keep true time.
func (r *chaosRun) skewWindow(dur time.Duration) {
	n := proto.NodeID(r.rng.Intn(r.cfg.Nodes))
	rates := [...]float64{0.25, 0.5, 2, 4}
	r.c.SetClockRate(n, rates[r.rng.Intn(len(rates))])
	r.res.SkewEvents++
	r.c.eng.After(dur, func() {
		r.c.SetClockRate(n, 1)
		r.scriptOpen--
	})
}

// restoreLSC flips every live engine back from §8 clock-free mode to normal
// LSC operation mid-run: queued speculative reads must drain and the read
// gates must reopen. Nodes restarted after this point come back in LSC mode
// too (the flag is a deployment switch, not per-boot state).
func (r *chaosRun) restoreLSC() {
	r.lscRestored = true
	for n := 0; n < r.cfg.Nodes; n++ {
		if !r.alive[n] {
			continue
		}
		if rep, ok := r.c.Replica(proto.NodeID(n)).(*ShardedReplica); ok {
			rep.SetNoLSC(false)
		}
	}
	r.scriptOpen--
}

// probeFastPath attempts one lock-free ReadLocal per serving node every
// 500µs, cycling keys. Under NoLSC the read gate's noLSC bit must make every
// probe miss (FastHitsNoLSC stays 0); after a RestoreLSC flip the hits prove
// the gate reopened. Probes touch only the striped read counters — never
// protocol state — so they cannot perturb the run they observe.
func (r *chaosRun) probeFastPath() {
	for n := 0; n < r.cfg.Nodes; n++ {
		id := proto.NodeID(n)
		if !r.alive[n] || !r.leased[n] || !r.view().Contains(id) {
			continue
		}
		rep, ok := r.c.Replica(id).(*ShardedReplica)
		if !ok {
			continue
		}
		key := proto.Key(r.probeKey % r.cfg.Keys)
		r.res.FastProbes++
		if _, ok := rep.Engine(int(proto.ShardOf(key, rep.Shards()))).ReadLocal(key); ok {
			if r.lscRestored {
				r.res.FastHitsRestored++
			} else {
				r.res.FastHitsNoLSC++
			}
		}
	}
	r.probeKey++
	if r.sessionsRun > 0 || r.scriptOpen > 0 {
		r.c.eng.After(500*time.Microsecond, r.probeFastPath)
	}
}

// storm proposes `bursts` back-to-back views: membership unchanged, epoch
// advancing each time. Each decision triggers every node's staggered
// rollout, so the §3.4 transition (gate shut, epoch-tagged filtering,
// replays of in-flight writes) runs shard after shard while the next view
// may already supersede the roll.
func (r *chaosRun) storm(bursts int, gap time.Duration) {
	if bursts == 0 {
		r.scriptOpen--
		return
	}
	if !r.bump() {
		// The coordinator still has a proposal in flight (or is dead):
		// retry this burst after the gap instead of dropping it.
		bursts++
	}
	r.c.eng.After(gap, func() { r.storm(bursts-1, gap) })
}

// bump proposes the current membership again at the next epoch; false
// means no proposal was started.
func (r *chaosRun) bump() bool {
	v := r.view()
	return r.propose(v.Members, v.Learners)
}

// propose asks the current coordinator's membership agent for a new view;
// false means no proposal was started (agent busy or missing) and the
// caller should retry.
func (r *chaosRun) propose(members, learners []proto.NodeID) bool {
	coord := r.coordinator()
	if !r.alive[coord] {
		return false
	}
	a := r.c.Agent(coord)
	if a == nil || a.Proposing() {
		return false
	}
	a.ProposeView(members, learners)
	return true
}

// leaseFlip revokes a serving member's lease for dur — the node rejects
// client requests (NotOperational) but keeps following the protocol, exactly
// like a replica on the minority side of a partition before the membership
// reacts.
func (r *chaosRun) leaseFlip(dur time.Duration) {
	n := r.pickVictim()
	if n == proto.NilNode {
		r.scriptOpen--
		return
	}
	r.leased[n] = false
	r.c.Replica(n).(*ShardedReplica).SetOperational(false)
	r.c.eng.After(dur, func() {
		if r.alive[n] {
			r.leased[n] = true
			r.c.Replica(n).(*ShardedReplica).SetOperational(true)
		}
		r.scriptOpen--
	})
}

// crashCycle is the full §3.4 recovery arc: crash-stop a member while
// traffic (and possibly a replay) is in flight, reconfigure it out, restart
// it as a learner (shadow replica, empty store), wait for chunk-transfer
// catch-up, then promote it back to a serving member. Every step is a view
// the agents decide. With RejoinBehind the node additionally misses extra
// epochs while down and restarts on its stale pre-crash view, so its only
// way forward is the view-log fetch.
func (r *chaosRun) crashCycle() {
	n := r.pickVictim()
	if n == proto.NilNode {
		r.scriptOpen--
		return
	}
	stale := r.view().Clone() // what n will remember if it rejoins behind
	r.c.hosts[n].crashed = true
	r.alive[n] = false
	r.res.Crashes++

	// Remove it from the membership a detection-delay later.
	r.c.eng.After(3*time.Millisecond, func() {
		r.proposeUntil(
			func() ([]proto.NodeID, []proto.NodeID) {
				v := r.view()
				return without(v.Members, n), v.Learners
			},
			func() bool { return !r.view().Contains(n) },
			func() {})
	})

	// Epochs n sleeps through: membership-unchanged bumps decided while it
	// is down, which it can later only learn from a peer's view log.
	restartAfter := 6 * time.Millisecond
	for i := 0; i < r.cfg.RejoinBehind; i++ {
		after := 3500*time.Microsecond + time.Duration(i)*600*time.Microsecond
		if after+600*time.Microsecond > restartAfter {
			restartAfter = after + 600*time.Microsecond
		}
		r.c.eng.After(after, func() { r.bump() })
	}

	// Restart as learner and add it to the view as one.
	r.c.eng.After(restartAfter, func() { r.restartAsLearner(n, stale) })
}

// restartAsLearner reconfigures n into the view as a learner, then revives
// it as a shadow replica. With RejoinBehind the restarted node seeds from its
// stale pre-crash view and nothing re-delivers what it missed — the
// replicas' epoch gossip and the view-log fetch it triggers must carry it.
func (r *chaosRun) restartAsLearner(n proto.NodeID, stale proto.View) {
	factory := func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return NewShardedReplica(id, view, env, ShardedReplicaConfig{
			Shards: r.cfg.Shards, MLT: r.cfg.MLT, Learner: true,
			NoLSC: r.cfg.NoLSC && !r.lscRestored,
		})
	}
	// Order matters: the learner-add view must COMMIT before the node
	// starts its chunk transfer. A learner fetching state while the
	// members' installed views still exclude it from the write set would
	// miss the writes racing the transfer — a stale store behind a Valid
	// state, serving stale reads after promotion.
	r.proposeUntil(
		func() ([]proto.NodeID, []proto.NodeID) {
			v := r.view()
			return v.Members, append(append([]proto.NodeID(nil), v.Learners...), n)
		},
		func() bool { return r.view().IsLearner(n) },
		func() {
			r.alive[n] = true
			r.leased[n] = true
			r.learner = n
			r.res.Restarts++
			restartView := r.view()
			if r.cfg.RejoinBehind > 0 {
				restartView = stale
			}
			r.c.Restart(n, factory, restartView)
			r.pollPromotion(n)
		})
}

// pollPromotion waits for the learner's every engine to finish state
// transfer, then promotes it to a serving member.
func (r *chaosRun) pollPromotion(n proto.NodeID) {
	rep, ok := r.c.Replica(n).(*ShardedReplica)
	if ok && rep.CaughtUp() {
		r.proposeUntil(
			func() ([]proto.NodeID, []proto.NodeID) {
				v := r.view()
				m := append(append([]proto.NodeID(nil), v.Members...), n)
				sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
				return m, without(v.Learners, n)
			},
			func() bool { return r.view().Contains(n) },
			func() {
				r.learner = proto.NilNode
				r.res.Promotions++
				r.scriptOpen--
			})
		return
	}
	r.c.eng.After(time.Millisecond, func() { r.pollPromotion(n) })
}

// proposeUntil keeps proposing a view shaped by mk (recomputed from the
// current committed view on every attempt, so a rival decision folds in)
// until pred observes the change committed, then runs done. Drives the
// script's membership changes through real consensus without wedging on
// lost proposals or duels.
func (r *chaosRun) proposeUntil(mk func() ([]proto.NodeID, []proto.NodeID), pred func() bool, done func()) {
	var step func()
	step = func() {
		if pred() {
			done()
			return
		}
		m, l := mk()
		r.propose(m, l) // best effort; retried next step if it did not start
		r.c.eng.After(time.Millisecond, step)
	}
	step()
}

// pickVictim selects a live, leased, non-learner member — never the last one
// standing.
func (r *chaosRun) pickVictim() proto.NodeID {
	var cands []proto.NodeID
	members := r.view().Members
	healthy := 0
	for _, m := range members {
		if r.alive[m] && r.leased[m] {
			healthy++
		}
	}
	if healthy < 2 {
		return proto.NilNode
	}
	for _, m := range members {
		if r.alive[m] && r.leased[m] && m != r.learner {
			cands = append(cands, m)
		}
	}
	if len(cands) == 0 {
		return proto.NilNode
	}
	return cands[r.rng.Intn(len(cands))]
}

// awaitConvergence drives the engine until every live shard has reached the
// highest decided epoch. A shard stuck behind means the gossip-driven
// view-log recovery path failed — that is a finding, reported with the seed.
func (r *chaosRun) awaitConvergence() error {
	deadline := r.c.eng.Now() + 400*time.Millisecond
	for !r.converged() {
		if r.c.eng.Now() >= deadline {
			return fmt.Errorf("shard epochs never converged to %d: [%s] (replay with seed %d)",
				r.view().Epoch, r.lagReport(), r.cfg.Seed)
		}
		r.c.eng.RunUntil(r.c.eng.Now() + time.Millisecond)
	}
	return nil
}

func (r *chaosRun) converged() bool {
	target := r.view().Epoch
	for n := 0; n < r.cfg.Nodes; n++ {
		if !r.alive[n] {
			continue
		}
		rep, ok := r.c.Replica(proto.NodeID(n)).(*ShardedReplica)
		if !ok {
			continue
		}
		for s := 0; s < r.cfg.Shards; s++ {
			if rep.Engine(s).View().Epoch < target {
				return false
			}
		}
	}
	return true
}

func (r *chaosRun) lagReport() string {
	target := r.view().Epoch
	var lags []string
	for n := 0; n < r.cfg.Nodes; n++ {
		if !r.alive[n] {
			continue
		}
		rep, ok := r.c.Replica(proto.NodeID(n)).(*ShardedReplica)
		if !ok {
			continue
		}
		for s := 0; s < r.cfg.Shards; s++ {
			if e := rep.Engine(s).View().Epoch; e < target {
				lags = append(lags, fmt.Sprintf("node%d/shard%d@%d", n, s, e))
			}
		}
	}
	return strings.Join(lags, " ")
}

func (r *chaosRun) coordinator() proto.NodeID {
	members := r.view().Members
	for _, m := range members {
		if r.alive[m] {
			return m
		}
	}
	return members[0]
}

// view returns the current membership: the highest-epoch view any agent has
// committed. A crashed or lagging agent never holds the maximum, and agents
// at one epoch hold the same decided view.
func (r *chaosRun) view() proto.View {
	best := r.c.Agent(0).View()
	for n := 1; n < r.cfg.Nodes; n++ {
		if v := r.c.Agent(proto.NodeID(n)).View(); v.Epoch > best.Epoch {
			best = v
		}
	}
	return best
}

// --- client sessions ---

type chaosSession struct {
	r         *chaosRun
	rng       *rand.Rand
	node      proto.NodeID
	remaining int
}

// next issues the session's next operation (or retires the session).
func (s *chaosSession) next() {
	r := s.r
	if s.remaining == 0 {
		r.sessionsRun--
		return
	}
	s.remaining--

	// Stick to the home node while it serves; fail over otherwise.
	target := s.node
	if v := r.view(); !r.alive[target] || !r.leased[target] || !v.Contains(target) {
		target = proto.NilNode
		for _, m := range v.Members {
			if r.alive[m] && r.leased[m] {
				target = m
				break
			}
		}
		if target == proto.NilNode {
			s.remaining++
			r.c.eng.After(time.Millisecond, s.next)
			return
		}
	}

	r.idSeq++
	id := r.idSeq
	key := proto.Key(s.rng.Intn(r.cfg.Keys))
	now := r.c.eng.Now()

	var op proto.ClientOp
	var kind linear.Kind
	switch p := s.rng.Float64(); {
	case p < 0.50:
		op = proto.ClientOp{ID: id, Kind: proto.OpRead, Key: key}
		kind = linear.KRead
		r.hist.Invoke(id, key, kind, nil, nil, now)
	case p < 0.80:
		val := proto.EncodeInt64(int64(id))
		op = proto.ClientOp{ID: id, Kind: proto.OpWrite, Key: key, Value: val}
		kind = linear.KWrite
		r.hist.Invoke(id, key, kind, val, nil, now)
	case p < 0.93:
		op = proto.ClientOp{ID: id, Kind: proto.OpFAA, Key: key, Value: proto.EncodeInt64(1)}
		kind = linear.KFAA
		r.hist.Invoke(id, key, kind, proto.EncodeInt64(1), nil, now)
	default:
		exp := proto.EncodeInt64(int64(s.rng.Intn(64)))
		val := proto.EncodeInt64(int64(id))
		op = proto.ClientOp{ID: id, Kind: proto.OpCAS, Key: key, Value: val, Expected: exp}
		kind = linear.KCASOk
		r.hist.Invoke(id, key, kind, val, exp, now)
	}

	r.outstanding[id] = func(comp proto.Completion) { s.complete(comp) }
	r.c.Submit(target, op, func(comp proto.Completion) {
		if cb := r.outstanding[comp.OpID]; cb != nil {
			delete(r.outstanding, comp.OpID)
			cb(comp)
		}
	})
	// Give-up watchdog: an op whose server crash-stopped can never complete;
	// abandon it (it stays pending in the history — it may or may not have
	// taken effect, which is exactly what the checker allows) and move on.
	// The window is generous so plain retransmission never trips it.
	r.c.eng.After(50*r.cfg.MLT, func() {
		if _, open := r.outstanding[id]; open {
			delete(r.outstanding, id)
			r.res.Abandoned++
			s.next()
		}
	})
}

// complete records an operation's outcome and issues the next one.
func (s *chaosSession) complete(comp proto.Completion) {
	r := s.r
	now := r.c.eng.Now()
	switch comp.Status {
	case proto.NotOperational:
		// Rejected before any protocol action: provably no effect.
		r.hist.Discard(comp.OpID)
		r.res.Rejected++
		s.remaining++ // retry does not consume the op budget
		r.c.eng.After(time.Millisecond, s.next)
		return
	case proto.Aborted:
		// Hermes guarantees aborted RMWs never applied.
		r.hist.Discard(comp.OpID)
		r.res.Aborts++
	case proto.CASFailed:
		r.hist.Return(comp.OpID, linear.KCASFail, comp.Value, now)
		r.res.Ops++
		r.res.RMWs++
	default:
		switch comp.Kind {
		case proto.OpRead:
			r.hist.Return(comp.OpID, linear.KRead, comp.Value, now)
			r.res.Reads++
		case proto.OpWrite:
			r.hist.Return(comp.OpID, linear.KWrite, nil, now)
			r.res.Writes++
		case proto.OpFAA:
			r.hist.Return(comp.OpID, linear.KFAA, comp.Value, now)
			r.res.RMWs++
		case proto.OpCAS:
			r.hist.Return(comp.OpID, linear.KCASOk, nil, now)
			r.res.RMWs++
		}
		r.res.Ops++
	}
	// Think time: stretches the workload across the fault schedule and keeps
	// per-key concurrency within what the Wing–Gong search handles happily.
	r.c.eng.After(time.Duration(50+s.rng.Intn(250))*time.Microsecond, s.next)
}

// --- epilogue ---

// finalReads issues one read per key at every serving member, one node
// round at a time, and requires every read to complete: Invalid keys must be
// driven Valid by the replay machinery, so this is an availability check as
// much as a convergence check.
func (r *chaosRun) finalReads(horizon time.Duration) error {
	var servers []proto.NodeID
	for _, m := range r.view().Members {
		if r.alive[m] && r.leased[m] {
			servers = append(servers, m)
		}
	}
	for _, node := range servers {
		open := r.cfg.Keys
		for k := 0; k < r.cfg.Keys; k++ {
			r.idSeq++
			id := r.idSeq
			key := proto.Key(k)
			r.hist.Invoke(id, key, linear.KRead, nil, nil, r.c.eng.Now())
			r.c.Submit(node, proto.ClientOp{ID: id, Kind: proto.OpRead, Key: key}, func(comp proto.Completion) {
				r.hist.Return(comp.OpID, linear.KRead, comp.Value, r.c.eng.Now())
				open--
			})
		}
		deadline := r.c.eng.Now() + 500*time.Millisecond
		for open > 0 && r.c.eng.Now() < deadline {
			r.c.eng.RunUntil(r.c.eng.Now() + time.Millisecond)
		}
		if open > 0 {
			return fmt.Errorf("final reads: %d of %d keys never became readable at node %d (replay with seed %d)",
				open, r.cfg.Keys, node, r.cfg.Seed)
		}
	}
	return nil
}

func (r *chaosRun) collectMetrics() {
	for n := 0; n < r.cfg.Nodes; n++ {
		rep, ok := r.c.Replica(proto.NodeID(n)).(*ShardedReplica)
		if !ok || !r.alive[n] {
			continue
		}
		var epochs []uint32
		for i := 0; i < rep.Shards(); i++ {
			m := rep.Engine(i).Metrics()
			r.res.Replays += m.Replays
			r.res.Retransmits += m.Retransmits
			r.res.StaleEpochDrops += m.StaleEpochDrops
			r.res.TeachACKs += m.TeachACKs
			r.res.TaughtApplied += m.TaughtApplied
			r.res.MChecks += m.MChecks
			r.res.SpecFlushed += m.SpecReadsFlushedByWrite
			if rep.Engine(i).ReadGate().Allowed() {
				r.res.GatesOpen++
			}
			epochs = append(epochs, rep.Engine(i).View().Epoch)
		}
		st := rep.HostStats()
		r.res.FFServed += st.FFServed
		r.res.FFApplied += st.FFApplied
		r.res.GossipSent += st.GossipSent
		r.res.GossipBehind += st.GossipBehind
		r.res.GossipFF += st.GossipFF
		rs := st.RollerStats
		r.res.Rollout.Views += rs.Views
		r.res.Rollout.Redelivered += rs.Redelivered
		r.res.Rollout.Superseded += rs.Superseded
		r.res.Rollout.ShardInstalls += rs.ShardInstalls
		r.res.Rollout.SkippedInstalls += rs.SkippedInstalls
		r.res.Rollout.NodeWideFallbacks += rs.NodeWideFallbacks
		r.res.FinalEpochs = append(r.res.FinalEpochs, epochs)
	}
	r.res.Reordered = r.c.net.Reordered
	r.res.Batches = r.c.net.Batches
}

// without returns ns minus x (non-destructive).
func without(ns []proto.NodeID, x proto.NodeID) []proto.NodeID {
	out := make([]proto.NodeID, 0, len(ns))
	for _, n := range ns {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}
