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
		counters    [5]uint64
	}{
		{"kitchen-sink", 1, 0xc12554b498ac1b7a, [5]uint64{24, 22, 1222, 113, 20}},
		{"kitchen-sink", 2, 0x01dd34ce52439cf5, [5]uint64{11, 11, 1122, 29, 9}},
		{"kitchen-sink", 3, 0x0e0b044c66fa815f, [5]uint64{20, 20, 2730, 84, 16}},
		{"gray", 1, 0xf030b4d17c9dbc61, [5]uint64{8, 8, 2210, 56, 6}},
		{"gray", 2, 0xfc36157d0d923a52, [5]uint64{10, 10, 2310, 54, 7}},
		{"gray", 3, 0x25e9d445a1834cc8, [5]uint64{6, 6, 2263, 36, 3}},
		{"rollout-storms", 1, 0x5ac4f7352bf273de, [5]uint64{27, 28, 2830, 89, 19}},
		{"rollout-storms", 2, 0xc3f8316e58c82116, [5]uint64{25, 26, 2920, 41, 13}},
		{"rollout-storms", 3, 0xfa929d4c5595e954, [5]uint64{18, 20, 2810, 93, 18}},
		{"rejoin-behind", 1, 0x1a9fdf1ed140a58c, [5]uint64{16, 17, 2838, 41, 10}},
		{"rejoin-behind", 2, 0xf2ec92bdc7008c25, [5]uint64{15, 15, 2830, 31, 8}},
		{"rejoin-behind", 3, 0xf0224955baf0f389, [5]uint64{17, 17, 1216, 42, 10}},
		{"gossip-self-heal", 1, 0xe32e4ab6c1db7fbe, [5]uint64{16, 16, 2934, 38, 10}},
		{"gossip-self-heal", 2, 0xee06b58a5e6462a9, [5]uint64{12, 12, 3030, 28, 8}},
		{"gossip-self-heal", 3, 0x30fb146f858064dc, [5]uint64{19, 19, 2818, 37, 8}},
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
