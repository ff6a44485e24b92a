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
// FFServed, FFApplied, GossipSent, GossipBehind, GossipFF.
func TestChaosGoldenFingerprints(t *testing.T) {
	configs := map[string]func(seed int64) ChaosConfig{
		"kitchen-sink": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, CrashRejoin: true, LeaseFlips: true, ShardStorms: true, StormShard: -1}
		},
		"gray": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, OpsPerSession: 60, CrashRejoin: true, RejoinBehind: 2,
				AsymPartitions: true, SlowNodes: true, ClockSkew: true, Reorder: true}
		},
		"agent-rollout": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, AgentDriven: true, CrashRejoin: true, ShardStorms: true}
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
		counters    [5]uint64
	}{
		{"kitchen-sink", 1, 0xaf3dd2b017aef6a7, [5]uint64{22, 8, 1258, 15, 10}},
		{"kitchen-sink", 2, 0x5ed08f73423c7c4a, [5]uint64{11, 7, 2942, 15, 8}},
		{"kitchen-sink", 3, 0xe9d61d8402d1031d, [5]uint64{6, 3, 2736, 9, 4}},
		{"gray", 1, 0x10a334b30fb63155, [5]uint64{61, 34, 2609, 24, 10}},
		{"gray", 2, 0x61bfba5c5d9f878c, [5]uint64{50, 33, 2337, 12, 10}},
		{"gray", 3, 0x2a95215f21150fcb, [5]uint64{22, 18, 2210, 12, 4}},
		{"agent-rollout", 1, 0x5ac4f7352bf273de, [5]uint64{27, 28, 2830, 89, 19}},
		{"agent-rollout", 2, 0xc3f8316e58c82116, [5]uint64{25, 26, 2920, 41, 13}},
		{"agent-rollout", 3, 0xfa929d4c5595e954, [5]uint64{18, 20, 2810, 93, 18}},
		{"rejoin-behind", 1, 0x27dc61709e76d1b2, [5]uint64{38, 28, 2743, 21, 8}},
		{"rejoin-behind", 2, 0xe532741c8d8f7eca, [5]uint64{40, 27, 2934, 17, 6}},
		{"rejoin-behind", 3, 0x4894cf7ec89df6e9, [5]uint64{28, 22, 1222, 23, 6}},
		{"gossip-self-heal", 1, 0x763695943737191b, [5]uint64{42, 27, 2843, 14, 6}},
		{"gossip-self-heal", 2, 0x94720ffecd081018, [5]uint64{42, 27, 2934, 8, 6}},
		{"gossip-self-heal", 3, 0x2c1e19115680f48c, [5]uint64{27, 23, 1323, 12, 5}},
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
			got := [5]uint64{res.FFServed, res.FFApplied, res.GossipSent,
				res.GossipBehind, res.GossipFF}
			if got != g.counters {
				t.Errorf("counters (served, applied, gossip sent/behind/ff) %v, want %v", got, g.counters)
			}
		})
	}
}
