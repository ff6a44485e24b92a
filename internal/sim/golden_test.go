package sim

import (
	"fmt"
	"testing"
)

// goldenConfigs are the chaos configurations the golden fingerprints pin and
// the sweep runs across 40 seeds.
var goldenConfigs = map[string]func(seed int64) ChaosConfig{
	"kitchen-sink": func(seed int64) ChaosConfig {
		return ChaosConfig{Seed: seed, CrashRejoin: true, LeaseFlips: true, ShardStorms: true}
	},
	"gray": func(seed int64) ChaosConfig {
		return ChaosConfig{Seed: seed, OpsPerSession: 60, CrashRejoin: true, RejoinBehind: 2,
			AsymPartitions: true, SlowNodes: true, ClockSkew: true, Reorder: true}
	},
	"rollout-storms": func(seed int64) ChaosConfig {
		return ChaosConfig{Seed: seed, CrashRejoin: true, ShardStorms: true}
	},
	"rejoin-behind": func(seed int64) ChaosConfig {
		return ChaosConfig{Seed: seed, CrashRejoin: true, RejoinBehind: 3}
	},
	"gossip-self-heal": func(seed int64) ChaosConfig {
		return ChaosConfig{Seed: seed, CrashRejoin: true, RejoinBehind: 3, AsymPartitions: true}
	},
}

// TestChaosGoldenFingerprints pins chaos results as literal constants, so
// "the run is unchanged" is checkable ACROSS commits — the *Deterministic
// tests only compare two runs inside one binary. A refactor of the shard
// routing, view-log, fast-forward or gossip code must leave every row
// untouched; a deliberate behaviour change regenerates the rows it moves and
// says so. The counters column pins what Fingerprint does not digest:
// FFServed, FFApplied, GossipSent, GossipBehind, GossipFF and Batches — the
// ShardBatches the replicas' egress stagers sent, so a stager change that the
// oracle cannot see (Hermes retransmits what a bad batch loses) still moves a
// row.
func TestChaosGoldenFingerprints(t *testing.T) {
	golden := []struct {
		config      string
		seed        int64
		fingerprint uint64
		counters    [6]uint64
	}{
		{"kitchen-sink", 1, 0x0fd0cb3bed5293b5, [6]uint64{33, 31, 1222, 82, 21, 45}},
		{"kitchen-sink", 2, 0xef8cc0809ab9752b, [6]uint64{11, 11, 1024, 30, 10, 14}},
		{"kitchen-sink", 3, 0xc93fee9cf95e26ce, [6]uint64{20, 20, 2830, 59, 16, 8}},
		{"gray", 1, 0x6201cd5b51b96e17, [6]uint64{11, 11, 2303, 42, 7, 24}},
		{"gray", 2, 0xa02df97a48d9fe5e, [6]uint64{11, 11, 2272, 34, 7, 12}},
		{"gray", 3, 0x8409a4a16d37a3ec, [6]uint64{8, 8, 2165, 28, 5, 12}},
		{"rollout-storms", 1, 0x15463752dbdfe057, [6]uint64{23, 24, 2928, 80, 19, 31}},
		{"rollout-storms", 2, 0x6130e8da71e27f50, [6]uint64{25, 25, 2822, 27, 12, 18}},
		{"rollout-storms", 3, 0xef9ec2082d595314, [6]uint64{22, 18, 2810, 62, 17, 17}},
		{"rejoin-behind", 1, 0x6364e9106d51751d, [6]uint64{17, 17, 2838, 36, 10, 13}},
		{"rejoin-behind", 2, 0xcf430f5dec27223d, [6]uint64{17, 17, 1128, 29, 10, 17}},
		{"rejoin-behind", 3, 0x1fbe48e34bbb27d7, [6]uint64{13, 13, 2914, 22, 8, 15}},
		{"gossip-self-heal", 1, 0x3ae84c4ae52e42fa, [6]uint64{16, 16, 2948, 28, 10, 20}},
		{"gossip-self-heal", 2, 0x78262da3ed77098a, [6]uint64{17, 17, 2970, 23, 9, 7}},
		{"gossip-self-heal", 3, 0x11e91ae53dddd90d, [6]uint64{15, 15, 2818, 22, 10, 11}},
	}
	var batches uint64
	for _, g := range golden {
		batches += g.counters[5]
	}
	if batches == 0 {
		t.Fatal("no golden row ships a ShardBatch: the chaos suite no longer exercises the egress stager")
	}
	for _, g := range golden {
		g := g
		t.Run(fmt.Sprintf("%s/seed=%d", g.config, g.seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunChaos(goldenConfigs[g.config](g.seed))
			if err != nil {
				t.Fatal(err)
			}
			if fp := res.Fingerprint(); fp != g.fingerprint {
				t.Errorf("fingerprint %#x, want %#x", fp, g.fingerprint)
			}
			got := [6]uint64{res.FFServed, res.FFApplied, res.GossipSent,
				res.GossipBehind, res.GossipFF, res.Batches}
			if got != g.counters {
				t.Errorf("counters (served, applied, gossip sent/behind/ff, batches) %v, want %v", got, g.counters)
			}
		})
	}
}
