package bench

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/shardhost"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ShardWorkerOf routes simulated work to the host worker owning its key —
// the cost-model counterpart of the live ShardedNode's dispatch: client ops
// and key-carrying protocol messages go to ShardOf(key) (shardhost.OwnerOf);
// instance-scoped traffic (membership checks, chunk transfer) to worker 0.
func ShardWorkerOf(w int) func(msg any) int {
	return func(msg any) int {
		if op, ok := msg.(proto.ClientOp); ok {
			return int(proto.ShardOf(op.Key, w))
		}
		return int(shardhost.OwnerOf(w, msg, 0))
	}
}

// shardCounts are the x-axis of the scaling run: 1 worker up to the paper's
// multi-worker regime.
var shardCounts = []int{1, 2, 4, 8}

// ShardScaling measures aggregate committed-write throughput of a 3-node
// Hermes group as the per-node engine is sharded across 1→W workers, on a
// uniform-random-key, write-only workload. With every key's full update
// pipeline — submit, INV handling at followers, ACK handling at the
// coordinator — pinned to the key's shard worker, writes to different
// shards commit fully in parallel and throughput scales with W until the
// offered load (closed-loop sessions) runs out. Per-shard columns report
// the min/max committed-writes/s across shards (uniform keys keep them
// close) and the worker utilization spread; msgs/wr counts protocol
// messages per committed write. Each node is a plain core.Hermes with its
// workers modeled by sim.Config.Workers, so every message is its own frame:
// the live egress stager's frame savings are pinned by cluster's
// TestOneWritePerPeerPerBurst, not modeled here.
func ShardScaling(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{
		"shards", "writes/s(M)", "speedup", "p50(us)", "p99(us)",
		"msgs/wr", "shard-min(M/s)", "shard-max(M/s)", "util%",
	}}
	var base float64
	for _, w := range shardCounts {
		perShard := make([]uint64, w)
		res, c := runShardPoint(sc, w, func(comp proto.Completion) {
			perShard[proto.ShardOf(comp.Key, w)]++
		})
		if w == shardCounts[0] {
			base = res.Throughput
		}
		minC, maxC := perShard[0], perShard[0]
		for _, n := range perShard[1:] {
			if n < minC {
				minC = n
			}
			if n > maxC {
				maxC = n
			}
		}
		secs := sc.Duration.Seconds()
		util := 0.0
		for _, u := range c.Utilization() {
			util += u
		}
		util /= 3
		t.AddRow(w, Mops(res.Throughput),
			fmt.Sprintf("%.2fx", res.Throughput/base),
			Micros(res.All.Median()), Micros(res.All.P99()),
			fmt.Sprintf("%.2f", float64(res.MsgsSent)/float64(res.Ops)),
			Mops(float64(minC)/secs), Mops(float64(maxC)/secs),
			fmt.Sprintf("%.0f", util*100))
	}
	return t
}

// runShardPoint measures one shard count of the scaling experiment: a
// 3-node Hermes group, write-only uniform workload, with enough closed-loop
// concurrency (32× the scale's sessions) to saturate the widest engine —
// closed-loop sessions must cover capacity × latency.
func runShardPoint(sc Scale, w int, observer func(proto.Completion)) (sim.Result, *sim.Cluster) {
	c := sim.New(sim.Config{
		Nodes:    3,
		Factory:  Factory(Hermes),
		Net:      sim.DefaultNet(),
		Costs:    sim.DefaultCosts(),
		Seed:     11,
		SizeOf:   SizeOf,
		Workers:  w,
		WorkerOf: ShardWorkerOf(w),
	})
	res := c.RunWorkload(sim.WorkloadParams{
		Workload: workload.Config{
			Keys:       sc.Keys,
			WriteRatio: 1.0,
			ValueSize:  32,
		},
		SessionsPerNode: 32 * sc.Sessions,
		Warmup:          sc.Warmup,
		Duration:        sc.Duration,
		Observer:        observer,
		Seed:            17,
	})
	return res, c
}

// ShardScalingSpeedup runs the scaling measurement at two shard counts and
// returns their aggregate committed-write throughputs (the acceptance
// check W=4 ≥ 2×W=1 uses it; keeps the table rendering out of tests).
func ShardScalingSpeedup(sc Scale, w1, w2 int) (float64, float64) {
	r1, _ := runShardPoint(sc, w1, nil)
	r2, _ := runShardPoint(sc, w2, nil)
	return r1.Throughput, r2.Throughput
}
