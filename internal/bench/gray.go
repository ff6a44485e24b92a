package bench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Gray is `hermes-bench -exp gray`: the gray-failure vocabulary measured on
// the deterministic chaos harness. One row per fault class — a clean
// baseline, each gray fault alone, and everything at once — so a protocol
// change that quietly regresses behavior under slow-but-alive nodes or
// one-way cuts shows up as a throughput or abandonment delta in CI history,
// not just a pass/fail bit. Every row runs the membership agents, so the
// heartbeats and their epoch gossip are part of each row's traffic.
// Every run's history still goes through the linearizability checker inside
// RunChaos; a violation fails the experiment outright.
func Gray(sc Scale) *stats.Table {
	seeds := []int64{11, 12, 13, 14, 15, 16, 17, 18}
	ops := 120
	if sc.Duration <= QuickScale().Duration {
		seeds = seeds[:2]
		ops = 50
	}
	rows := []struct {
		name string
		cfg  sim.ChaosConfig
	}{
		{"baseline", sim.ChaosConfig{}},
		{"asym-partition", sim.ChaosConfig{AsymPartitions: true}},
		{"slow-alive", sim.ChaosConfig{SlowNodes: true}},
		{"clock-skew", sim.ChaosConfig{ClockSkew: true}},
		{"burst-reorder", sim.ChaosConfig{Reorder: true}},
		{"all", sim.ChaosConfig{
			AsymPartitions: true, SlowNodes: true, ClockSkew: true, Reorder: true,
			CrashRejoin: true, RejoinBehind: 2,
		}},
	}
	t := &stats.Table{Header: []string{
		"fault", "ops", "kops/vsec", "abandoned", "replays", "retransmits",
		"reordered", "teach-acks", "gossip-ff",
	}}
	for _, r := range rows {
		var ops64, abandoned, replays, retrans, reordered, teach, gff uint64
		var vsec float64
		for _, seed := range seeds {
			cfg := r.cfg
			cfg.Seed = seed
			cfg.OpsPerSession = ops
			res, err := sim.RunChaos(cfg)
			if err != nil {
				panic(fmt.Sprintf("gray bench %s seed %d: %v", r.name, seed, err))
			}
			ops64 += res.Ops
			abandoned += res.Abandoned
			replays += res.Replays
			retrans += res.Retransmits
			reordered += res.Reordered
			teach += res.TeachACKs
			gff += res.GossipFF
			vsec += res.Elapsed.Seconds()
		}
		t.AddRow(r.name, ops64, fmt.Sprintf("%.1f", float64(ops64)/vsec/1e3),
			abandoned, replays, retrans, reordered, teach, gff)
	}
	return t
}
