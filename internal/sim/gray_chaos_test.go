package sim

import (
	"fmt"
	"sort"
	"testing"
)

// Gray-failure scenarios: the fault vocabulary beyond fail-stop — one-way
// partitions, slow-but-alive nodes, clock-rate skew, burst reordering — plus
// §8 NoLSC mode under all of it.
// Every run's full history goes through the Wing–Gong checker inside
// RunChaos; the assertions below are about coverage (did the schedule reach
// the machinery it names) and about the specific healing/gating claims.

// TestChaosAsymmetricPartition installs one-way link cuts under live load:
// A->B silently drops while B->A keeps delivering. The protocol's
// retransmissions must carry the run through, and every cut must heal.
func TestChaosAsymmetricPartition(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{Seed: seed, AsymPartitions: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.AsymParts != 2 || res.AsymHealed != 2 {
			t.Fatalf("seed %d: %d cuts, %d healed, want 2/2", seed, res.AsymParts, res.AsymHealed)
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
	}
}

// TestChaosSlowButAliveNode opens slow windows sized to straddle the MLT:
// the slowed node's traffic arrives after the sender has already
// retransmitted, so originals and retransmissions race in flight. The pin is
// that a slow-but-alive node never wedges anyone: sessions finish, the
// epilogue reads every key at every member, and the history linearizes —
// all enforced inside RunChaos.
func TestChaosSlowButAliveNode(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{Seed: seed, SlowNodes: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SlowWindows != 2 {
			t.Fatalf("seed %d: %d slow windows, want 2", seed, res.SlowWindows)
		}
		if res.Retransmits == 0 {
			t.Fatalf("seed %d: no retransmissions — the windows never straddled the MLT", seed)
		}
	}
}

// TestChaosClockSkew runs nodes' clocks at 0.25x–4x: MLT deadlines, tick
// cadence and lease arithmetic all skew while the wire keeps true time. A
// fast clock retransmits early (duplicates), a slow one late (stalls) — the
// protocol must absorb both without a safety violation.
func TestChaosClockSkew(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{Seed: seed, ClockSkew: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SkewEvents != 3 {
			t.Fatalf("seed %d: %d skew events, want 3", seed, res.SkewEvents)
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
	}
}

// TestChaosBurstReorder holds a seeded fraction of messages back long enough
// for later sends to overtake them — reordering far beyond jitter's adjacent
// swaps — and requires the run to have actually reordered something.
func TestChaosBurstReorder(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{Seed: seed, Reorder: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reordered == 0 {
			t.Fatalf("seed %d: no messages reordered", seed)
		}
	}
}

// TestChaosNoLSCUnderSkew runs every engine in §8 clock-free mode while
// clocks skew and a node runs slow: reads execute speculatively and release
// only on a commit flush or an MCheck majority. The read-gate fast path must
// be structurally closed — zero hits across every probe — and the histories
// must still linearize (checked inside RunChaos).
func TestChaosNoLSCUnderSkew(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{
			Seed:      seed,
			NoLSC:     true,
			ClockSkew: true,
			SlowNodes: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FastProbes == 0 {
			t.Fatalf("seed %d: probe loop never ran", seed)
		}
		if res.FastHitsNoLSC != 0 {
			t.Fatalf("seed %d: %d fast-path hits under NoLSC, want exactly 0", seed, res.FastHitsNoLSC)
		}
		if res.GatesOpen != 0 {
			t.Fatalf("seed %d: %d read gates open at end of a NoLSC run, want 0", seed, res.GatesOpen)
		}
		if res.MChecks+res.SpecFlushed == 0 {
			t.Fatalf("seed %d: no speculative-read releases (MChecks=0, SpecFlushed=0) — §8 never engaged", seed)
		}
	}
}

// TestChaosLSCRestoreReopensGate flips the engines back from NoLSC to LSC
// mid-run: the queued speculative reads must drain, the read gates must
// reopen (probes start hitting again, and every gate is open at the end),
// and not a single probe may have slipped through while NoLSC held.
func TestChaosLSCRestoreReopensGate(t *testing.T) {
	for _, seed := range chaosSeeds(t, 3) {
		res, err := RunChaos(ChaosConfig{
			Seed:       seed,
			NoLSC:      true,
			RestoreLSC: true,
			ClockSkew:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FastHitsNoLSC != 0 {
			t.Fatalf("seed %d: %d fast-path hits before the restore, want 0", seed, res.FastHitsNoLSC)
		}
		if res.FastHitsRestored == 0 {
			t.Fatalf("seed %d: no fast-path hits after restoring LSC — the gate never reopened", seed)
		}
		if res.GatesOpen == 0 {
			t.Fatalf("seed %d: every read gate still shut at end of run after RestoreLSC", seed)
		}
	}
}

// TestChaosGrayDeterministic pins deterministic replay per fault type: for
// each gray-failure injection, two runs of the same seed must produce
// identical fingerprints (histories, final epochs, counters — including the
// new Reordered/GossipFF/FastHitsNoLSC/SkewEvents fields).
func TestChaosGrayDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChaosConfig
	}{
		{"asym", ChaosConfig{Seed: 101, AsymPartitions: true}},
		{"slow", ChaosConfig{Seed: 102, SlowNodes: true}},
		{"skew", ChaosConfig{Seed: 103, ClockSkew: true}},
		{"reorder", ChaosConfig{Seed: 104, Reorder: true}},
		{"nolsc", ChaosConfig{Seed: 105, NoLSC: true, RestoreLSC: true, ClockSkew: true}},
		{"gossip", ChaosConfig{Seed: 106, CrashRejoin: true, RejoinBehind: 3, AsymPartitions: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := RunChaos(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChaos(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
				t.Fatalf("same seed, different runs: fingerprints %x vs %x (ops %d vs %d)",
					fa, fb, a.Ops, b.Ops)
			}
		})
	}
}

// grayDiscoveryNet is the fabric the 300-seed discovery sweeps ran on: fast
// (2µs base) but noticeably lossy, duplicating and reordering — the regime
// that flushed out the two latent bugs pinned below. The pinned seeds replay
// the exact schedules that found them.
var grayDiscoveryNet = NetConfig{BaseLatency: 2000, Jitter: 500, LossProb: 0.05, DupProb: 0.02, ReorderProb: 0.05}

// TestChaosStaleAckIncarnation pins a latent bug the gray vocabulary flushed
// out (discovery sweep seed 76): a pending write had gathered an ACK from a
// node that then crashed, was removed, and rejoined — all within the
// pending's lifetime. The stale acked entry counted for the node's fresh
// incarnation, so the write committed without ever re-invalidating the
// restarted (empty) replica, and a later read there returned the old value.
// OnViewChange now resets every pending's gathered-ACK set so commit
// accounting restarts under the new membership. The schedule was found with
// harness-pushed views; under agent-decided views the node restarts only
// after its learner-add commits, and no seed of this config reaches the bug
// any more. The run stays as a regression net (the linearizability check
// inside RunChaos), and TestClusterStaleAckDoesNotCountForRejoinedNode is
// the scenario that goes red without the reset.
func TestChaosStaleAckIncarnation(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Seed: 76, OpsPerSession: 80, Net: grayDiscoveryNet,
		CrashRejoin: true, LeaseFlips: true, ShardStorms: true,
		AsymPartitions: true, SlowNodes: true, ClockSkew: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatalf("schedule drift: the pinned run no longer restarts a node")
	}
}

// TestChaosTeachingACK pins the teaching-ACK shield (discovery sweep seed
// 205): an ACK-without-apply used to hide the acker's in-flight rival from
// the losing write's coordinator, which validated its own outranked copy at
// commit time and served it as an RMW base — the RMW minted above the rival
// and its read skipped the rival's later-committed value, a non-linearizable
// splice. The ACK now carries the outranking entry (core.ACK.Higher*) and
// the coordinator installs it instead of validating, so the RMW waits for
// the rival's chain like any other stalled request. Crucially the shield
// only *applies* the taught entry — the pending's own timestamp is never
// reissued, since its INV may already have committed via a §3.4 replay
// elsewhere (re-minting resurrected already-observed values in the sweep).
func TestChaosTeachingACK(t *testing.T) {
	var taught uint64
	for seed := int64(200); seed <= 214; seed++ {
		res, err := RunChaos(ChaosConfig{
			Seed: seed, OpsPerSession: 80, Net: grayDiscoveryNet,
			CrashRejoin: true, LeaseFlips: true, ShardStorms: true,
			AsymPartitions: true, SlowNodes: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		taught += res.TaughtApplied
	}
	if taught == 0 {
		t.Fatalf("no teaching ACK was ever applied across the pinned seeds — the shield went dead")
	}
}

// TestChaosGraySweep is the CI chaos net: every golden configuration — the
// gray one with every gray injection on at once (one-way cuts, slow nodes,
// skewed clocks, burst reorder, crash-rejoin-behind healed by epoch gossip)
// and the four others — across 40 seeds, 200 runs, each of which must stay
// linearizable and converge. It runs the full sweep even in -short mode (CI
// runs exactly this under -race).
func TestChaosGraySweep(t *testing.T) {
	const sweep = 40
	names := make([]string, 0, len(goldenConfigs))
	for name := range goldenConfigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for seed := int64(1); seed <= sweep; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, name := range names {
				res, err := RunChaos(goldenConfigs[name](seed))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Ops == 0 {
					t.Fatalf("%s seed %d: no operations completed", name, seed)
				}
			}
		})
	}
}
