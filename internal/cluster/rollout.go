package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/shardhost"
)

// RolloutController turns node-wide membership decisions into staggered
// per-shard installs — the automatic reconfiguration pipeline of §3.5–3.6.
// A membership agent (membership.Agent's OnView callback, or a node-wide
// wire MUpdate) hands it one view per epoch; the controller rolls that view
// across the node's W shards one at a time, ordered by live shard load
// (coolest shard first, so the hottest keeps its lock-free read fast path
// open longest), so **at most one read gate is shut at any moment**. The
// per-shard install blocks until that shard's §3.4 transition completes
// before the next gate shuts.
//
// Two escape hatches keep the staggering safe:
//
//   - A view that removes the local node (neither member nor learner)
//     installs node-wide immediately: a fenced node must stop serving every
//     shard at once, and trickling the fence across shards would keep
//     serving reads the new membership no longer sanctions.
//   - A newer view arriving mid-roll supersedes the current one: the roll
//     restarts with the newest view and each shard lands directly on the
//     latest epoch (views are complete membership states, so skipping
//     epochs is a fast-forward, not a gap). The skipped views stay in the
//     node's view log for peers that need to replay them.
//
// The controller does not own the view log or the gossip observer: those
// are the node's (internal/shardhost), so a node with no controller attached
// retains, serves and fast-forwards all the same. Each view is recorded there
// before it is queued (by OnView, or by the host when it arrives on the
// wire), which keeps superseded epochs fetchable.
type RolloutController struct {
	sn  *ShardedNode
	cfg RolloutConfig

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	mu           sync.Mutex
	latest       proto.View
	have         bool
	lastAccepted uint32

	// prevLoads is the load snapshot of the previous roll; deltas against it
	// are the "live" load that orders the next roll. Only the roll loop
	// touches it.
	prevLoads []uint64

	// Counters (see RolloutStats).
	views, redelivered, shardInstalls, skippedInstalls atomic.Uint64
	nodeWideFallbacks, gossipSent                      atomic.Uint64

	// onInstall is a test hook observing each per-shard install in order.
	onInstall func(shard int, v proto.View)
}

// RolloutConfig parameterizes a controller.
type RolloutConfig struct {
	// Stagger is the pause between consecutive per-shard installs of one
	// roll, on top of each install's own (blocking) transition time. It
	// spaces the replay storms the installs trigger; 0 means back-to-back.
	Stagger time.Duration
	// GossipEvery, when positive, broadcasts this node's per-shard epoch
	// vector (proto.EpochGossip) to GossipPeers on that period. Combined
	// with the observer on the receive side this closes the self-healing
	// loop: a node that missed m-updates learns its lag from any peer's
	// gossip and fast-forwards itself, no operator or harness required.
	GossipEvery time.Duration
	// GossipPeers is the mesh peer set gossip is announced to (typically
	// the full configured node set; self is skipped).
	GossipPeers []proto.NodeID
	// FFDebounce rate-limits gossip-triggered fast-forwards: within one
	// window, at most one fetch is issued, and the candidate peer is the
	// one advertising the highest epoch seen in the window (newest peer
	// preferred — it provably retains the longest log suffix). Default
	// 4 x GossipEvery, or the node's 100ms when gossip is off.
	FFDebounce time.Duration
}

// RolloutStats snapshots the controller's counters.
type RolloutStats struct {
	// Views counts accepted (newer-epoch) views; Redelivered counts
	// duplicate or stale deliveries dropped idempotently — without touching
	// any read gate (the PR 4 duplicate-install lesson, now enforced one
	// layer up).
	Views, Redelivered uint64
	// ShardInstalls counts per-shard installs performed; SkippedInstalls
	// counts shards found already at or past the target epoch (fast-forward
	// landed first, or a superseded roll already covered them).
	ShardInstalls, SkippedInstalls uint64
	// NodeWideFallbacks counts views that removed the local node and were
	// installed on every shard at once.
	NodeWideFallbacks uint64
	// GossipSent counts epoch-gossip frames announced. The receive side
	// (observations, fast-forward fetches issued and applied) is the node's:
	// ShardedNode.HostStats.
	GossipSent uint64
}

// NewRolloutController attaches a controller to sn and starts its roll
// loop. It registers itself as sn's ViewHandlers, so node-wide wire
// m-updates route through it from now on. Hand OnView to the membership
// agent (membership.Config.OnView) to complete the automatic pipeline. Close
// detaches and stops it.
func NewRolloutController(sn *ShardedNode, cfg RolloutConfig) *RolloutController {
	rc := &RolloutController{
		sn:   sn,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	// Seed the accepted-epoch floor from the node's current state: a
	// controller attached to a node already at epoch N must treat a
	// late-redelivered view <= N as a redelivery, not a fresh decision — a
	// stale pre-rejoin removal view would otherwise fence the node through
	// the node-wide fallback.
	for _, e := range sn.ShardEpochs() {
		if e > rc.lastAccepted {
			rc.lastAccepted = e
		}
	}
	rc.prevLoads = sn.ShardLoads()
	if d := cfg.FFDebounce; d > 0 || cfg.GossipEvery > 0 {
		if d <= 0 {
			d = 4 * cfg.GossipEvery
		}
		sn.withHost(func(h *shardhost.Host) { h.Debounce = d })
	}
	sn.SetViewHandlers(&ViewHandlers{View: rc.accept})
	rc.wg.Add(1)
	go rc.loop()
	if cfg.GossipEvery > 0 {
		rc.wg.Add(1)
		go rc.gossipLoop()
	}
	return rc
}

// gossipLoop periodically announces this node's per-shard epoch vector to
// the configured peers. Transport.Send never blocks, so a slow peer link
// cannot stall the round: its share waits, or is shed, in the transport.
func (rc *RolloutController) gossipLoop() {
	defer rc.wg.Done()
	t := time.NewTicker(rc.cfg.GossipEvery)
	defer t.Stop()
	for {
		select {
		case <-rc.stop:
			return
		case <-t.C:
		}
		eg := proto.EpochGossip{Epochs: rc.sn.ShardEpochs()}
		for _, p := range rc.cfg.GossipPeers {
			if p == rc.sn.id {
				continue
			}
			rc.gossipSent.Add(1)
			rc.sn.tr.Send(rc.sn.id, p, eg)
		}
	}
}

// OnView is the membership agent's entry: it retains the decided view in the
// node's view log (this node has seen it and can serve it to a laggard, even
// if it turns out a redelivery or is superseded before rolling) and accepts
// it. A node-wide wire MUpdate skips the first half — the host recorded it on
// arrival — and reaches accept directly.
func (rc *RolloutController) OnView(v proto.View) {
	rc.sn.recordView(proto.MUpdate{Shard: proto.AllShards, View: v})
	rc.accept(v)
}

// accept queues a newer epoch for rolling (newest wins — an older queued view
// still unrolled is superseded); duplicates and stale epochs are dropped
// idempotently and counted, without shutting or republishing any gate.
func (rc *RolloutController) accept(v proto.View) {
	rc.mu.Lock()
	if v.Epoch <= rc.lastAccepted {
		rc.mu.Unlock()
		rc.redelivered.Add(1)
		return
	}
	rc.lastAccepted = v.Epoch
	rc.latest = v.Clone()
	rc.have = true
	rc.mu.Unlock()
	rc.views.Add(1)
	select {
	case rc.kick <- struct{}{}:
	default:
	}
}

// Stats snapshots the controller's counters; safe mid-traffic.
func (rc *RolloutController) Stats() RolloutStats {
	return RolloutStats{
		Views:             rc.views.Load(),
		Redelivered:       rc.redelivered.Load(),
		ShardInstalls:     rc.shardInstalls.Load(),
		SkippedInstalls:   rc.skippedInstalls.Load(),
		NodeWideFallbacks: rc.nodeWideFallbacks.Load(),
		GossipSent:        rc.gossipSent.Load(),
	}
}

// Close stops the roll loop and detaches the controller from the node, which
// goes back to a bare node's view fan-out and debounce. In-flight per-shard
// installs finish (they block on shard event loops that remain live); queued
// views are abandoned.
func (rc *RolloutController) Close() {
	select {
	case <-rc.stop:
	default:
		close(rc.stop)
	}
	rc.wg.Wait()
	rc.sn.SetViewHandlers(nil)
	rc.sn.withHost(func(h *shardhost.Host) { h.Debounce = defaultFFDebounce })
}

func (rc *RolloutController) loop() {
	defer rc.wg.Done()
	for {
		select {
		case <-rc.stop:
			return
		case <-rc.kick:
		}
		for {
			rc.mu.Lock()
			if !rc.have {
				rc.mu.Unlock()
				break
			}
			v := rc.latest
			rc.have = false
			rc.mu.Unlock()
			if !rc.roll(v) {
				return // stopped mid-roll
			}
		}
	}
}

// roll installs v across the shards, one read gate at a time, coolest shard
// first. Returns false when the controller was stopped mid-roll.
func (rc *RolloutController) roll(v proto.View) bool {
	self := rc.sn.id
	if !v.Contains(self) && !v.IsLearner(self) {
		// The view fences this node: stop serving everywhere at once.
		// Staggering a removal would keep gates open on shards the new
		// membership no longer sanctions.
		rc.nodeWideFallbacks.Add(1)
		rc.sn.InstallView(v)
		return true
	}
	for _, s := range rc.loadOrder() {
		rc.mu.Lock()
		superseded := rc.have
		rc.mu.Unlock()
		if superseded {
			// A newer view arrived mid-roll: abandon this epoch. The loop
			// restarts with the newest view, whose roll covers every shard
			// still behind — including the ones this pass never reached.
			return true
		}
		if rc.sn.ShardEpochs()[s] >= v.Epoch {
			// Already there (a fast-forward or a superseded roll landed
			// first): installing again would shut and republish a healthy
			// gate for nothing.
			rc.skippedInstalls.Add(1)
			continue
		}
		if rc.onInstall != nil {
			rc.onInstall(s, v)
		}
		// Straight onto the shard: v is already retained node-wide, and
		// the recording InstallShardView would log it W more times.
		rc.sn.shards[s].installView(v) // blocks until the transition completes
		rc.shardInstalls.Add(1)
		if rc.cfg.Stagger > 0 {
			select {
			case <-rc.stop:
				return false
			case <-time.After(rc.cfg.Stagger):
			}
		}
	}
	return true
}

// loadOrder returns the shard indices sorted by the load accrued since the
// previous roll, ascending (ties by index, for determinism): the coolest
// shard transitions first, the hottest keeps its fast path open longest.
func (rc *RolloutController) loadOrder() []int {
	cur := rc.sn.ShardLoads()
	delta := make([]uint64, len(cur))
	for i, c := range cur {
		p := uint64(0)
		if i < len(rc.prevLoads) {
			p = rc.prevLoads[i]
		}
		delta[i] = c - p
	}
	rc.prevLoads = cur
	return shardhost.OrderByLoad(delta)
}
