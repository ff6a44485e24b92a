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
// FastForwards, FFServed, FFApplied, GossipSent, GossipBehind, GossipFF.
func TestChaosGoldenFingerprints(t *testing.T) {
	configs := map[string]func(seed int64) ChaosConfig{
		"kitchen-sink": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, CrashRejoin: true, LeaseFlips: true, ShardStorms: true, StormShard: -1}
		},
		"gray": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, OpsPerSession: 60, CrashRejoin: true, RejoinBehind: 2,
				AsymPartitions: true, SlowNodes: true, ClockSkew: true, Reorder: true,
				Gossip: true, NoInstallBackstop: true}
		},
		"agent-rollout": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, AgentDriven: true, CrashRejoin: true, ShardStorms: true}
		},
		"rejoin-behind": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, CrashRejoin: true, RejoinBehind: 3}
		},
		"gossip-self-heal": func(seed int64) ChaosConfig {
			return ChaosConfig{Seed: seed, CrashRejoin: true, RejoinBehind: 3, AsymPartitions: true,
				Gossip: true, NoInstallBackstop: true}
		},
	}
	golden := []struct {
		config      string
		seed        int64
		fingerprint uint64
		counters    [6]uint64
	}{
		{"kitchen-sink", 1, 0x1d7c4921ddb9c7b9, [6]uint64{0, 0, 0, 0, 0, 0}},
		{"kitchen-sink", 2, 0x7591b237c0dcd1a2, [6]uint64{3, 3, 3, 0, 0, 0}},
		{"kitchen-sink", 3, 0x10494ea8db41dbf1, [6]uint64{1, 1, 1, 0, 0, 0}},
		{"gray", 1, 0x10a334b30fb63155, [6]uint64{0, 61, 34, 2609, 24, 10}},
		{"gray", 2, 0x61bfba5c5d9f878c, [6]uint64{0, 50, 33, 2337, 12, 10}},
		{"gray", 3, 0x2a95215f21150fcb, [6]uint64{0, 22, 18, 2210, 12, 4}},
		{"agent-rollout", 1, 0x7fbe0fc3daca10d2, [6]uint64{0, 12, 13, 0, 44, 10}},
		{"agent-rollout", 2, 0xad8f2cc343f3955a, [6]uint64{0, 8, 8, 0, 18, 5}},
		{"agent-rollout", 3, 0x071b69e494e81e4f, [6]uint64{0, 12, 12, 0, 32, 10}},
		{"rejoin-behind", 1, 0xa44abe873b359e00, [6]uint64{4, 20, 20, 0, 0, 0}},
		{"rejoin-behind", 2, 0xa1e15b5643c6077e, [6]uint64{10, 24, 24, 0, 0, 0}},
		{"rejoin-behind", 3, 0x2462c1a2237a03dd, [6]uint64{11, 25, 25, 0, 0, 0}},
		{"gossip-self-heal", 1, 0x763695943737191b, [6]uint64{0, 42, 27, 2843, 14, 6}},
		{"gossip-self-heal", 2, 0x94720ffecd081018, [6]uint64{0, 42, 27, 2934, 8, 6}},
		{"gossip-self-heal", 3, 0x2c1e19115680f48c, [6]uint64{0, 27, 23, 1323, 12, 5}},
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
			got := [6]uint64{res.FastForwards, res.FFServed, res.FFApplied,
				res.GossipSent, res.GossipBehind, res.GossipFF}
			if got != g.counters {
				t.Errorf("counters (ff, served, applied, gossip sent/behind/ff) %v, want %v", got, g.counters)
			}
		})
	}
}
