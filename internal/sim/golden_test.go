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
		{"kitchen-sink", 1, 0x3366042c40ba222b, [6]uint64{29, 26, 1222, 108, 19, 13}},
		{"kitchen-sink", 2, 0x06fba8b1e85166f7, [6]uint64{21, 21, 1136, 29, 9, 33}},
		{"kitchen-sink", 3, 0x5e50b156112d4289, [6]uint64{20, 20, 2868, 97, 15, 6}},
		{"gray", 1, 0x9f8c926625f3db99, [6]uint64{9, 9, 2210, 55, 7, 9}},
		{"gray", 2, 0xa552225c35d43b64, [6]uint64{10, 10, 2272, 50, 6, 13}},
		{"gray", 3, 0x0729284df0d398f7, [6]uint64{8, 8, 2165, 43, 5, 3}},
		{"rollout-storms", 1, 0xd647aec622285809, [6]uint64{28, 29, 2830, 107, 19, 3}},
		{"rollout-storms", 2, 0x215279eabe0cef0a, [6]uint64{20, 20, 1094, 44, 13, 5}},
		{"rollout-storms", 3, 0x6d7ec12092da7c31, [6]uint64{19, 16, 2848, 83, 15, 6}},
		{"rejoin-behind", 1, 0x39de28f97963cecc, [6]uint64{16, 16, 2838, 42, 10, 4}},
		{"rejoin-behind", 2, 0xad862d604aa67693, [6]uint64{15, 15, 1230, 40, 8, 6}},
		{"rejoin-behind", 3, 0x9e87edb30d3fa1e2, [6]uint64{13, 13, 2914, 33, 8, 0}},
		{"gossip-self-heal", 1, 0x25c1414c0e5d8b6d, [6]uint64{16, 16, 2934, 40, 10, 3}},
		{"gossip-self-heal", 2, 0x79d95aa1a32903a8, [6]uint64{11, 11, 2928, 28, 6, 7}},
		{"gossip-self-heal", 3, 0x3db03940462830ff, [6]uint64{14, 14, 2818, 32, 8, 0}},
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
