package sim

import (
	"fmt"
	"testing"
)

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
	configs := map[string]func(seed int64) ChaosConfig{
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
	golden := []struct {
		config      string
		seed        int64
		fingerprint uint64
		counters    [6]uint64
	}{
		{"kitchen-sink", 1, 0xa016b61ac8180f36, [6]uint64{28, 26, 1222, 121, 19, 19}},
		{"kitchen-sink", 2, 0x7e0d602346b6dc36, [6]uint64{11, 11, 1222, 39, 9, 7}},
		{"kitchen-sink", 3, 0x3bd64626497f94b0, [6]uint64{17, 17, 2830, 79, 16, 20}},
		{"gray", 1, 0x007e57e99911bf9b, [6]uint64{9, 9, 2210, 55, 7, 9}},
		{"gray", 2, 0x3126fb7d8ac5bcef, [6]uint64{9, 9, 2272, 54, 7, 6}},
		{"gray", 3, 0x9ca5050e1f77d97c, [6]uint64{6, 6, 2263, 36, 3, 0}},
		{"rollout-storms", 1, 0xed5caaacd92227ab, [6]uint64{26, 27, 2830, 98, 19, 1}},
		{"rollout-storms", 2, 0xa27affa82f609801, [6]uint64{25, 26, 2920, 41, 13, 0}},
		{"rollout-storms", 3, 0x6d7396755a7b15ff, [6]uint64{23, 25, 2810, 100, 18, 4}},
		{"rejoin-behind", 1, 0x00a7e0bd4e6c2217, [6]uint64{16, 17, 2934, 41, 10, 0}},
		{"rejoin-behind", 2, 0xdf776d15dc04121c, [6]uint64{15, 15, 3030, 31, 8, 6}},
		{"rejoin-behind", 3, 0xf1408a0d954a16c8, [6]uint64{17, 17, 1318, 43, 10, 4}},
		{"gossip-self-heal", 1, 0x25c1414c0e5d8b6d, [6]uint64{16, 16, 2934, 40, 10, 3}},
		{"gossip-self-heal", 2, 0x03964a285446ab6c, [6]uint64{13, 13, 2928, 29, 8, 3}},
		{"gossip-self-heal", 3, 0x970007240036c707, [6]uint64{19, 19, 2818, 36, 8, 15}},
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
			res, err := RunChaos(configs[g.config](g.seed))
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
