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
		{"kitchen-sink", 1, 0x7a326c6b872a42fa, [6]uint64{22, 25, 1222, 59, 18, 94}},
		{"kitchen-sink", 2, 0xdd483c23e709ce15, [6]uint64{12, 12, 1122, 13, 9, 133}},
		{"kitchen-sink", 3, 0x2b42e8e109cd69fb, [6]uint64{20, 20, 2742, 47, 14, 60}},
		{"gray", 1, 0xdf9fe39e8cf95e64, [6]uint64{12, 12, 2303, 42, 8, 27}},
		{"gray", 2, 0x18d7dba704b13b37, [6]uint64{10, 10, 2170, 33, 7, 58}},
		{"gray", 3, 0xc637ca1180401a1a, [6]uint64{8, 8, 2263, 29, 5, 38}},
		{"rollout-storms", 1, 0x95f2fb20795f480d, [6]uint64{28, 26, 1230, 78, 19, 85}},
		{"rollout-storms", 2, 0x8dd1fdafca841a46, [6]uint64{31, 31, 1322, 29, 13, 104}},
		{"rollout-storms", 3, 0x454ab2546a209be1, [6]uint64{22, 20, 1210, 58, 19, 103}},
		{"rejoin-behind", 1, 0x29fc8b9f27c2c865, [6]uint64{15, 15, 2934, 29, 10, 71}},
		{"rejoin-behind", 2, 0xcdfdc75218e0a5f0, [6]uint64{15, 15, 2928, 21, 8, 77}},
		{"rejoin-behind", 3, 0xb0a6906752323604, [6]uint64{20, 20, 1414, 29, 10, 95}},
		{"gossip-self-heal", 1, 0xd853f74dcc4ce3ea, [6]uint64{14, 12, 3036, 18, 8, 62}},
		{"gossip-self-heal", 2, 0x6ee236d4f11084b0, [6]uint64{15, 15, 2928, 24, 10, 76}},
		{"gossip-self-heal", 3, 0x064ad3bb9a1b6163, [6]uint64{18, 18, 2716, 27, 10, 74}},
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
