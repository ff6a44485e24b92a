package sim

import (
	"fmt"
	"testing"
	"time"
)

// The chaos regression suite: deterministic, seeded reconfiguration
// scenarios over the sharded engine, each checked against the Wing–Gong
// linearizability oracle by RunChaos itself. Every failure message from
// RunChaos embeds the seed, so a red run replays exactly.

// TestChaosCrashDuringReplay crashes a member while writes — and, under a
// lossy network, their replays — are in flight, reconfigures it out, rejoins
// it as a learner and promotes it. The counters assert the run actually
// exercised the §3.4 machinery it is named for.
func TestChaosCrashDuringReplay(t *testing.T) {
	seeds := chaosSeeds(t, 3)
	for _, seed := range seeds {
		cfg := ChaosConfig{
			Seed:        seed,
			CrashRejoin: true,
			// Lossier than the default so VAL loss strands keys Invalid and
			// the replay path fires around the crash.
			Net: NetConfig{
				BaseLatency: 2 * time.Microsecond,
				Jitter:      500 * time.Nanosecond,
				LossProb:    0.03,
				DupProb:     0.01,
			},
		}
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 1 || res.Restarts != 1 || res.Promotions != 1 {
			t.Fatalf("seed %d: crash/restart/promote = %d/%d/%d, want 1/1/1",
				seed, res.Crashes, res.Restarts, res.Promotions)
		}
		if res.Replays == 0 {
			t.Fatalf("seed %d: no write replays — the scenario never reached the machinery under test", seed)
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
	}
}

// TestChaosLearnerCatchUpRacingReads runs the full rejoin arc while reader
// sessions keep hammering all keys: chunk-transfer catch-up races live
// reads and writes, and after promotion the ex-learner serves reads itself
// (the epilogue reads every key at every member, promoted node included).
func TestChaosLearnerCatchUpRacingReads(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{
			Seed:        seed,
			CrashRejoin: true,
			LeaseFlips:  true,
			// More keys → a real chunk-transfer payload racing more reads.
			Keys: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Promotions != 1 {
			t.Fatalf("seed %d: %d promotions, want 1", seed, res.Promotions)
		}
		// The promoted node appears in FinalEpochs (it is alive) and must
		// have converged onto the final epoch on every shard.
		if len(res.FinalEpochs) != 3 {
			t.Fatalf("seed %d: %d live nodes at the end, want 3", seed, len(res.FinalEpochs))
		}
	}
}

// TestChaosKitchenSink turns every injection on at once across seeds — the
// harness as regression net rather than targeted scenario.
func TestChaosKitchenSink(t *testing.T) {
	for _, seed := range chaosSeeds(t, 4) {
		res, err := RunChaos(ChaosConfig{
			Seed:        seed,
			CrashRejoin: true,
			LeaseFlips:  true,
			ShardStorms: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
	}
}

// TestChaosDeterministic pins the "replayable seed" contract: two runs of
// the same seed must produce byte-identical histories, epochs and counters.
// (This is what the protocol core's sorted meta iteration buys; Paxos
// traffic, staggered rollouts and view-log fetches all ride the seeded
// engine too.)
func TestChaosDeterministic(t *testing.T) {
	for _, seed := range []int64{77, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := ChaosConfig{Seed: seed, CrashRejoin: true, LeaseFlips: true, ShardStorms: true}
			a, err := RunChaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
				t.Fatalf("same seed, different runs: fingerprints %x vs %x (ops %d vs %d, elapsed %v vs %v)",
					fa, fb, a.Ops, b.Ops, a.Elapsed, b.Elapsed)
			}
			if a.Elapsed != b.Elapsed {
				t.Fatalf("same seed, different virtual end times: %v vs %v", a.Elapsed, b.Elapsed)
			}
		})
	}
}

// chaosSeeds trims the seed sweep in -short mode (CI runs the suite under
// -race, where a full sweep is needlessly slow).
func chaosSeeds(t *testing.T, n int) []int64 {
	t.Helper()
	if testing.Short() && n > 1 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}
