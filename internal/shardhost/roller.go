package shardhost

import (
	"sort"

	"repro/internal/proto"
)

// RollerStats are a node's rollout counters.
type RollerStats struct {
	// Views counts accepted (newer-epoch) views; Redelivered counts
	// duplicate or stale deliveries dropped idempotently, without touching
	// any read gate; Superseded counts accepted views a newer one replaced
	// before their roll finished.
	Views, Redelivered, Superseded uint64
	// ShardInstalls counts per-shard installs handed out; SkippedInstalls
	// counts shards found already at or past the target epoch (a fast-forward
	// or a superseded roll landed first).
	ShardInstalls, SkippedInstalls uint64
	// NodeWideFallbacks counts views that fenced this node and were
	// installed on every shard at once.
	NodeWideFallbacks uint64
}

// Roller decides how node-wide membership views roll across a node's W
// shards: one shard at a time, coolest first, so at most one read gate is
// shut at any moment and the hottest shard keeps its lock-free fast path
// open longest. Like Host it has no goroutines, no locks and no clock: Host
// hands it views (Accept), asks for the next install (Next) with the shards'
// current epochs and loads, and performs each install through its Driver.
//
// The rules:
//
//   - A view at or below the highest epoch accepted so far is a
//     redelivery: counted, never rolled. The floor starts at the shards'
//     highest epoch, so a stale removal view redelivered after a rejoin
//     cannot fence the node.
//   - The newest view wins: one accepted mid-roll abandons the rest of the
//     current roll, and the next roll covers every shard still behind,
//     landing it directly on the newest epoch (views are complete membership
//     states, so a skipped epoch is a fast-forward, not a gap).
//   - A view that fences this node (neither member nor learner) installs on
//     every shard at once: trickling the fence would keep serving reads the
//     new membership no longer sanctions.
//   - A shard already at or past the view's epoch is skipped.
//   - Shards roll in ascending order of the load accrued since the previous
//     roll, ties by index.
//   - Nothing is handed out while the previous install is in flight: a shard
//     it covered still reports an epoch below that install's. A shard's epoch
//     moves inside its transition (core.Hermes.OnViewChange republishes the
//     read gate under it), so a runtime that installs asynchronously still
//     shuts one gate at a time. Synchronous installs land before Next is asked
//     again, so there the rule never holds anything back.
type Roller struct {
	self  proto.NodeID
	floor uint32 // highest epoch accepted

	view    proto.View // newest accepted view
	pending bool       // view's roll has not started
	order   []int      // view's shards not yet visited, coolest first

	// The last install handed out: its shard (or AllShards) and epoch.
	inShard uint16
	inEpoch uint32

	prevLoads []uint64 // the loads at the previous roll's start
	stats     RollerStats
}

// NewRoller builds the roller of node self, whose shards stand at epochs
// with loads accrued so far.
func NewRoller(self proto.NodeID, epochs []uint32, loads []uint64) *Roller {
	r := &Roller{self: self, prevLoads: append([]uint64(nil), loads...)}
	for _, e := range epochs {
		r.floor = max(r.floor, e)
	}
	return r
}

// Stats snapshots the counters.
func (r *Roller) Stats() RollerStats { return r.stats }

// Accept queues v for rolling if it is newer than every view accepted
// before, superseding any view still queued or rolling.
func (r *Roller) Accept(v proto.View) {
	if v.Epoch <= r.floor {
		r.stats.Redelivered++
		return
	}
	if r.Rolling() {
		r.stats.Superseded++
	}
	r.floor = v.Epoch
	r.view, r.pending, r.order = v.Clone(), true, nil
	r.stats.Views++
}

// Rolling reports whether a view is queued or under way, so Next may have an
// install to hand out.
func (r *Roller) Rolling() bool { return r.pending || len(r.order) > 0 }

// Next returns the install the roll calls for now — one shard, or
// proto.AllShards for a fenced node — given each shard's current epoch and
// load; false means nothing is left to roll, or the previous install is
// still in flight.
func (r *Roller) Next(epochs []uint32, loads []uint64) (proto.MUpdate, bool) {
	for s, e := range epochs {
		if (r.inShard == proto.AllShards || int(r.inShard) == s) && e < r.inEpoch {
			return proto.MUpdate{}, false
		}
	}
	if r.pending {
		r.pending = false
		if !r.view.Contains(r.self) && !r.view.IsLearner(r.self) {
			r.stats.NodeWideFallbacks++
			return r.handOut(proto.AllShards), true
		}
		r.order = r.loadOrder(loads)
	}
	for len(r.order) > 0 {
		s := r.order[0]
		r.order = r.order[1:]
		if epochs[s] >= r.view.Epoch {
			r.stats.SkippedInstalls++
			continue
		}
		r.stats.ShardInstalls++
		return r.handOut(uint16(s)), true
	}
	return proto.MUpdate{}, false
}

// handOut records the install of the current view on shard as in flight.
func (r *Roller) handOut(shard uint16) proto.MUpdate {
	r.inShard, r.inEpoch = shard, r.view.Epoch
	return proto.MUpdate{Shard: shard, View: r.view}
}

// loadOrder sorts the shard indices by the load accrued since the previous
// roll, ascending, ties by index, and starts the next interval.
func (r *Roller) loadOrder(loads []uint64) []int {
	order := make([]int, len(loads))
	delta := make([]uint64, len(loads))
	for i, l := range loads {
		order[i], delta[i] = i, l
		if i < len(r.prevLoads) {
			delta[i] -= r.prevLoads[i]
		}
	}
	r.prevLoads = append(r.prevLoads[:0], loads...)
	sort.SliceStable(order, func(a, b int) bool { return delta[order[a]] < delta[order[b]] })
	return order
}
