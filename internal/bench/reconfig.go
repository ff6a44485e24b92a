package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/stats"
)

// This file measures the LIVE payoff of per-shard membership epochs: when
// one shard rides out an install/replay storm — back-to-back m-updates with
// writes in flight, every install shutting the read gate and epoch-filtering
// the in-flight traffic of the shards it touches — how much throughput do the
// *untouched* shards keep? With shard-targeted installs (InstallShardView)
// the storm never touches shards j≠hot, so their readers stay on the
// lock-free fast path at full speed; with the node-wide installs this
// experiment uses as its control, every install shuts every shard's gate and
// retags every shard's traffic, and the collateral damage shows up as lost
// reads, lost fast-path hits and stalled writes on shards that had nothing
// to reconfigure.

// reconfigKeys is the preloaded keyspace; keys spread over all shards.
const reconfigKeys = 256

// reconfigInstallEvery paces the storm: one install per this interval on
// every node, sustained through the storm window — a reconfiguration rate
// far beyond any real membership churn, which is the point of a storm.
const reconfigInstallEvery = 200 * time.Microsecond

// ReconfigPointResult is one measured storm run: per-shard read/write
// counts for equal-length baseline and storm windows, plus fast-path
// hit/miss deltas for the storm window.
type ReconfigPointResult struct {
	Shards, Hot int
	Installs    uint64

	BaseReads, StormReads   []uint64
	BaseWrites, StormWrites []uint64
	StormHits, StormMisses  []uint64

	// EpochsAfter is node 0's per-shard epochs when the storm ends —
	// evidence of which shards the storm actually touched.
	EpochsAfter []uint32
}

// ReadRetention returns shard s's storm-window read throughput as a
// fraction of its baseline.
func (r ReconfigPointResult) ReadRetention(s int) float64 {
	if r.BaseReads[s] == 0 {
		return 0
	}
	return float64(r.StormReads[s]) / float64(r.BaseReads[s])
}

// WriteRetention is the write-side analogue of ReadRetention.
func (r ReconfigPointResult) WriteRetention(s int) float64 {
	if r.BaseWrites[s] == 0 {
		return 0
	}
	return float64(r.StormWrites[s]) / float64(r.BaseWrites[s])
}

// StormHitRate returns shard s's fast-path hit rate during the storm.
func (r ReconfigPointResult) StormHitRate(s int) float64 {
	total := r.StormHits[s] + r.StormMisses[s]
	if total == 0 {
		return 0
	}
	return float64(r.StormHits[s]) / float64(total)
}

// untouchedMin folds fn over the shards the storm did not target and
// returns the minimum — the worst collateral damage.
func (r ReconfigPointResult) untouchedMin(fn func(int) float64) float64 {
	min := -1.0
	for s := 0; s < r.Shards; s++ {
		if s == r.Hot {
			continue
		}
		if v := fn(s); min < 0 || v < min {
			min = v
		}
	}
	return min
}

// UntouchedMinReadRetention is the acceptance number: the worst untouched
// shard's storm-window read throughput relative to baseline.
func (r ReconfigPointResult) UntouchedMinReadRetention() float64 {
	return r.untouchedMin(r.ReadRetention)
}

// UntouchedMinWriteRetention is the write-side analogue.
func (r ReconfigPointResult) UntouchedMinWriteRetention() float64 {
	return r.untouchedMin(r.WriteRetention)
}

// UntouchedMinStormHitRate is the worst untouched shard's fast-path hit
// rate during the storm.
func (r ReconfigPointResult) UntouchedMinStormHitRate() float64 {
	return r.untouchedMin(r.StormHitRate)
}

// RunReconfigPoint stands up a live 3-replica, `shards`-shard group, drives
// one reader and one writer goroutine per shard against node 0, measures a
// baseline window of dur, then sustains an install storm — per-shard
// installs targeting only shard `hot` when global is false, node-wide
// installs (the pre-localization behaviour) when global is true — for a
// second window of dur and reports both.
func RunReconfigPoint(shards int, global bool, dur time.Duration) ReconfigPointResult {
	grp := cluster.NewShardedLocal(cluster.LocalConfig{N: 3, MLT: 2 * time.Millisecond}, shards)
	defer grp.Close()
	ctx := context.Background()
	node := grp.Nodes[0]
	const hot = 0

	// Preload and bucket the keyspace by owning shard.
	shardKeys := make([][]proto.Key, shards)
	for k := proto.Key(0); k < reconfigKeys; k++ {
		s := proto.ShardOf(k, shards)
		shardKeys[s] = append(shardKeys[s], k)
		if err := node.Write(ctx, k, proto.Value("reconfig-seed")); err != nil {
			panic(fmt.Sprintf("bench: preload: %v", err))
		}
	}

	reads := make([]atomic.Uint64, shards)
	writes := make([]atomic.Uint64, shards)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) { // reader: loop over this shard's keys
			defer wg.Done()
			keys := shardKeys[s]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := node.Read(ctx, keys[i%len(keys)]); err == nil {
					reads[s].Add(1)
				}
				// Yield between reads: a 40ns fast-path loop per shard would
				// otherwise monopolize small hosts and starve the event
				// loops, turning the measurement into scheduler noise. The
				// retention *ratios* are what this experiment reports, and
				// they survive the yield on any core count.
				runtime.Gosched()
			}
		}(s)
		wg.Add(1)
		go func(s int) { // writer: keeps update traffic in flight on the shard
			defer wg.Done()
			keys := shardKeys[s]
			val := proto.Value("reconfig-write-32-byte-payload!!")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, time.Second)
				err := node.Write(wctx, keys[i%len(keys)], val)
				cancel()
				if err == nil {
					writes[s].Add(1)
				}
			}
		}(s)
	}

	snap := func() (rd, wr, hit, miss []uint64) {
		rd = make([]uint64, shards)
		wr = make([]uint64, shards)
		hit = make([]uint64, shards)
		miss = make([]uint64, shards)
		for s := 0; s < shards; s++ {
			rd[s] = reads[s].Load()
			wr[s] = writes[s].Load()
			_, h, m := node.Shard(s).Hermes().ReadStats()
			hit[s], miss[s] = h, m
		}
		return
	}
	delta := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		for i := range a {
			out[i] = b[i] - a[i]
		}
		return out
	}

	time.Sleep(dur / 4) // warm-up
	r0, w0, _, _ := snap()
	time.Sleep(dur)
	r1, w1, h1, m1 := snap()

	// Storm: sustained installs until the window closes. Every node gets
	// each install, as a membership service's commit fan-out would do.
	res := ReconfigPointResult{Shards: shards, Hot: hot}
	epoch := uint32(1)
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		epoch++
		v := proto.View{Epoch: epoch, Members: []proto.NodeID{0, 1, 2}}
		for _, n := range grp.Nodes {
			if global {
				n.InstallView(v)
			} else {
				n.InstallShardView(hot, v)
			}
		}
		res.Installs++
		time.Sleep(reconfigInstallEvery)
	}
	r2, w2, h2, m2 := snap()
	close(stop)
	wg.Wait()

	res.BaseReads, res.BaseWrites = delta(r0, r1), delta(w0, w1)
	res.StormReads, res.StormWrites = delta(r1, r2), delta(w1, w2)
	res.StormHits, res.StormMisses = delta(h1, h2), delta(m1, m2)
	res.EpochsAfter = node.ShardEpochs()
	return res
}

// RolloutPointResult is one measured full-view rollout storm: every issued
// view reconfigures ALL shards (the membership agent's node-wide decision),
// either staggered one gate at a time through cluster.RolloutController or
// installed on every shard simultaneously (the pre-controller behaviour).
// Reads/writes are aggregated across all shards — with full-view rollouts
// there is no untouched shard, so the aggregate is the availability number.
type RolloutPointResult struct {
	Shards    int
	Issued    uint64 // views fed to the nodes
	Installed uint64 // per-shard installs actually performed (node 0)
	Skipped   uint64 // installs skipped by supersede fast-forward (node 0)

	BaseReads, StormReads   uint64
	BaseWrites, StormWrites uint64
	StormHits, StormMisses  uint64

	EpochsAfter []uint32
}

// AggReadRetention is the acceptance number: storm-window aggregate read
// throughput as a fraction of baseline.
func (r RolloutPointResult) AggReadRetention() float64 {
	if r.BaseReads == 0 {
		return 0
	}
	return float64(r.StormReads) / float64(r.BaseReads)
}

// AggWriteRetention is the write-side analogue.
func (r RolloutPointResult) AggWriteRetention() float64 {
	if r.BaseWrites == 0 {
		return 0
	}
	return float64(r.StormWrites) / float64(r.BaseWrites)
}

// StormHitRate is the aggregate fast-path hit rate during the storm.
func (r RolloutPointResult) StormHitRate() float64 {
	total := r.StormHits + r.StormMisses
	if total == 0 {
		return 0
	}
	return float64(r.StormHits) / float64(total)
}

// RunRolloutPoint stands up a live 3-replica, `shards`-shard group under
// per-shard readers and writers on node 0, measures a baseline window, then
// sustains a full-view install storm — every view addressed to every shard —
// for a second window. With staggered=true each node runs a
// RolloutController (at most one gate shut at any moment, coolest shard
// first, newest view wins mid-roll); with staggered=false every view shuts
// all W gates at once on every node.
func RunRolloutPoint(shards int, staggered bool, dur time.Duration) RolloutPointResult {
	grp := cluster.NewShardedLocal(cluster.LocalConfig{N: 3, MLT: 2 * time.Millisecond}, shards)
	defer grp.Close()
	ctx := context.Background()
	node := grp.Nodes[0]

	var rcs []*cluster.RolloutController
	if staggered {
		for _, n := range grp.Nodes {
			rc := cluster.NewRolloutController(n, cluster.RolloutConfig{})
			defer rc.Close()
			rcs = append(rcs, rc)
		}
	}

	shardKeys := make([][]proto.Key, shards)
	for k := proto.Key(0); k < reconfigKeys; k++ {
		s := proto.ShardOf(k, shards)
		shardKeys[s] = append(shardKeys[s], k)
		if err := node.Write(ctx, k, proto.Value("rollout-seed")); err != nil {
			panic(fmt.Sprintf("bench: preload: %v", err))
		}
	}

	reads := make([]atomic.Uint64, shards)
	writes := make([]atomic.Uint64, shards)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			keys := shardKeys[s]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := node.Read(ctx, keys[i%len(keys)]); err == nil {
					reads[s].Add(1)
				}
				runtime.Gosched() // see RunReconfigPoint
			}
		}(s)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			keys := shardKeys[s]
			val := proto.Value("rollout-write-32-byte-payload!!!")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, time.Second)
				err := node.Write(wctx, keys[i%len(keys)], val)
				cancel()
				if err == nil {
					writes[s].Add(1)
				}
			}
		}(s)
	}

	snap := func() (rd, wr, hit, miss uint64) {
		for s := 0; s < shards; s++ {
			rd += reads[s].Load()
			wr += writes[s].Load()
			_, h, m := node.Shard(s).Hermes().ReadStats()
			hit += h
			miss += m
		}
		return
	}

	time.Sleep(dur / 4) // warm-up
	r0, w0, _, _ := snap()
	time.Sleep(dur)
	r1, w1, h1, m1 := snap()

	res := RolloutPointResult{Shards: shards}
	epoch := uint32(1)
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		epoch++
		v := proto.View{Epoch: epoch, Members: []proto.NodeID{0, 1, 2}}
		if staggered {
			for _, rc := range rcs {
				rc.OnView(v)
			}
		} else {
			for _, n := range grp.Nodes {
				n.InstallView(v)
			}
		}
		res.Issued++
		time.Sleep(reconfigInstallEvery)
	}
	r2, w2, h2, m2 := snap()
	if staggered {
		st := rcs[0].Stats()
		res.Installed, res.Skipped = st.ShardInstalls, st.SkippedInstalls
	} else {
		res.Installed = res.Issued * uint64(shards)
	}
	close(stop)
	wg.Wait()

	res.BaseReads, res.BaseWrites = r1-r0, w1-w0
	res.StormReads, res.StormWrites = r2-r1, w2-w1
	res.StormHits, res.StormMisses = h2-h1, m2-m1
	res.EpochsAfter = node.ShardEpochs()
	return res
}

// ReconfigAvailability is `hermes-bench -exp reconfig`: one row per install
// mode. The per-shard/global pair reproduces the PR 4 experiment (a storm
// on ONE shard; the headline is what the untouched shards keep); the
// rollout pair storms FULL views through every shard and compares the
// staggered controller against simultaneous all-gates installs — there the
// aggregate read retention is the headline, and hot/untouched columns do
// not apply.
func ReconfigAvailability(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{
		"mode", "rollout", "installs", "agg-rd-ret%", "agg-wr-ret%", "agg-hit%",
		"hot-rd-ret%", "untouched-rd-ret%", "untouched-hit%", "untouched-wr-ret%",
	}}
	dur := readBenchDur(sc)
	pct := func(v float64) string { return fmt.Sprintf("%.1f", 100*v) }
	for _, global := range []bool{false, true} {
		mode := "per-shard"
		if global {
			mode = "global"
		}
		r := RunReconfigPoint(4, global, dur)
		aggBase, aggStorm := uint64(0), uint64(0)
		aggWrBase, aggWrStorm := uint64(0), uint64(0)
		hits, misses := uint64(0), uint64(0)
		for s := 0; s < r.Shards; s++ {
			aggBase += r.BaseReads[s]
			aggStorm += r.StormReads[s]
			aggWrBase += r.BaseWrites[s]
			aggWrStorm += r.StormWrites[s]
			hits += r.StormHits[s]
			misses += r.StormMisses[s]
		}
		aggRet, aggWrRet, aggHit := 0.0, 0.0, 0.0
		if aggBase > 0 {
			aggRet = float64(aggStorm) / float64(aggBase)
		}
		if aggWrBase > 0 {
			aggWrRet = float64(aggWrStorm) / float64(aggWrBase)
		}
		if hits+misses > 0 {
			aggHit = float64(hits) / float64(hits+misses)
		}
		t.AddRow(mode, "-", r.Installs,
			pct(aggRet), pct(aggWrRet), pct(aggHit),
			pct(r.ReadRetention(r.Hot)),
			pct(r.UntouchedMinReadRetention()),
			pct(r.UntouchedMinStormHitRate()),
			pct(r.UntouchedMinWriteRetention()))
	}
	for _, staggered := range []bool{true, false} {
		rollout := "staggered"
		if !staggered {
			rollout = "simultaneous"
		}
		r := RunRolloutPoint(4, staggered, dur)
		t.AddRow("full-view", rollout, r.Issued,
			pct(r.AggReadRetention()), pct(r.AggWriteRetention()), pct(r.StormHitRate()),
			"-", "-", "-", "-")
	}
	return t
}
