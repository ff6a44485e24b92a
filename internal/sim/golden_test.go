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
		{"kitchen-sink", 1, 0xa2a40bfc575df1da, [6]uint64{31, 30, 1222, 129, 21, 45}},
		{"kitchen-sink", 2, 0x6e2b83d3740a956c, [6]uint64{15, 15, 1162, 46, 12, 29}},
		{"kitchen-sink", 3, 0xca3335ad425994ab, [6]uint64{20, 20, 2830, 89, 16, 8}},
		{"gray", 1, 0x6201cd5b51b96e17, [6]uint64{11, 11, 2303, 67, 7, 24}},
		{"gray", 2, 0xa02df97a48d9fe5e, [6]uint64{11, 11, 2272, 55, 7, 12}},
		{"gray", 3, 0x8409a4a16d37a3ec, [6]uint64{8, 8, 2165, 44, 5, 12}},
		{"rollout-storms", 1, 0xc5a3916b1920d040, [6]uint64{24, 23, 2928, 121, 19, 31}},
		{"rollout-storms", 2, 0xbfc6e092cbc1aab0, [6]uint64{28, 28, 3022, 46, 13, 24}},
		{"rollout-storms", 3, 0x0bbb30f8266ed7f9, [6]uint64{22, 18, 2810, 98, 17, 17}},
		{"rejoin-behind", 1, 0x6364e9106d51751d, [6]uint64{17, 17, 2838, 52, 10, 13}},
		{"rejoin-behind", 2, 0xcf430f5dec27223d, [6]uint64{17, 17, 1128, 45, 10, 17}},
		{"rejoin-behind", 3, 0x1fbe48e34bbb27d7, [6]uint64{13, 13, 2914, 33, 8, 15}},
		{"gossip-self-heal", 1, 0x3ae84c4ae52e42fa, [6]uint64{16, 16, 2948, 47, 10, 20}},
		{"gossip-self-heal", 2, 0xc7b67f926ff87f3b, [6]uint64{17, 17, 2970, 36, 9, 7}},
		{"gossip-self-heal", 3, 0x11e91ae53dddd90d, [6]uint64{15, 15, 2818, 35, 10, 11}},
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
