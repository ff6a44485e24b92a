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
// across the node's W shards one at a time, by live shard load, so **at most
// one read gate is shut at any moment**. The per-shard install blocks until
// that shard's §3.4 transition completes before the next gate shuts.
//
// The rules — the epoch floor, newest-view-wins supersede, the node-wide
// install of a view that fences this node, skipping shards already there,
// coolest shard first — are shardhost.Roller's, the same code the
// simulator's chaos sweeps run. What stays here needs a goroutine: the roll
// loop, the blocking installs, the Stagger pause and the gossip loop.
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

	// mu guards roller: views arrive on the callers' goroutines, the roll
	// loop asks it for installs.
	mu         sync.Mutex
	roller     *shardhost.Roller
	gossipSent atomic.Uint64

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
	// It also sets the node's fast-forward debounce to 4 x GossipEvery
	// (otherwise the bare node's 100ms): within one window at most one
	// gossip-triggered fetch is issued, to the peer advertising the highest
	// epoch seen in it.
	GossipEvery time.Duration
	// GossipPeers is the mesh peer set gossip is announced to (typically
	// the full configured node set; self is skipped).
	GossipPeers []proto.NodeID
}

// RolloutStats snapshots the controller's counters.
type RolloutStats struct {
	shardhost.RollerStats
	// GossipSent counts epoch-gossip frames announced. The receive side
	// (observations, fast-forward fetches issued and applied) is the node's:
	// ShardedNode.HostStats.
	GossipSent uint64
}

// NewRolloutController attaches a controller to sn and starts its roll
// loop. It takes over sn's node-wide view hook, so node-wide wire m-updates
// route through it from now on. Hand OnView to the membership agent
// (membership.Config.OnView) to complete the automatic pipeline. Close
// detaches and stops it.
func NewRolloutController(sn *ShardedNode, cfg RolloutConfig) *RolloutController {
	rc := &RolloutController{
		sn:     sn,
		cfg:    cfg,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		roller: shardhost.NewRoller(sn.id, sn.ShardEpochs(), sn.ShardLoads()),
	}
	sn.setNodeView(rc.accept)
	rc.wg.Add(1)
	go rc.loop()
	if cfg.GossipEvery > 0 {
		sn.withHost(func(h *shardhost.Host) { h.Debounce = 4 * cfg.GossipEvery })
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

// accept hands v to the roller and wakes the roll loop.
func (rc *RolloutController) accept(v proto.View) {
	rc.mu.Lock()
	rc.roller.Accept(v)
	rc.mu.Unlock()
	select {
	case rc.kick <- struct{}{}:
	default:
	}
}

// Stats snapshots the controller's counters; safe mid-traffic.
func (rc *RolloutController) Stats() RolloutStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return RolloutStats{RollerStats: rc.roller.Stats(), GossipSent: rc.gossipSent.Load()}
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
	rc.sn.setNodeView(nil)
	rc.sn.withHost(func(h *shardhost.Host) { h.Debounce = defaultGossipDebounce })
}

// loop performs the installs the roller calls for, one at a time, until it
// has nothing left, then waits for the next view.
func (rc *RolloutController) loop() {
	defer rc.wg.Done()
	for {
		select {
		case <-rc.stop:
			return
		case <-rc.kick:
		}
		for {
			epochs, loads := rc.sn.ShardEpochs(), rc.sn.ShardLoads()
			rc.mu.Lock()
			m, ok := rc.roller.Next(epochs, loads)
			rc.mu.Unlock()
			if !ok {
				break
			}
			if m.Shard == proto.AllShards {
				rc.sn.InstallView(m.View) // fenced: stop serving everywhere at once
				continue
			}
			if rc.onInstall != nil {
				rc.onInstall(int(m.Shard), m.View)
			}
			// Straight onto the shard: the view is already retained
			// node-wide, and the recording InstallShardView would log it W
			// more times.
			rc.sn.shards[m.Shard].installView(m.View) // blocks until the transition completes
			if rc.cfg.Stagger > 0 {
				select {
				case <-rc.stop:
					return
				case <-time.After(rc.cfg.Stagger):
				}
			}
		}
	}
}
