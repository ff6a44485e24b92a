package sim

import (
	"testing"

	"repro/internal/shardhost"
)

// Chaos scenarios for the automatic reconfiguration pipeline: the gossip-
// triggered view-log fast-forward of a node that rejoined epochs behind, and
// agent-decided views rolled shard by shard under rollout storms.

// TestChaosRejoinBehindFastForwardsViaViewLog is the acceptance regression
// for lag recovery: a node crashes, misses the removal plus three more epochs
// plus its own learner-add (none of which is ever re-delivered), and
// restarts on its stale pre-crash view. Convergence must come from the
// replicas themselves: peers announce their epoch vectors, the laggard
// observes itself behind and fetches the gap from a peer's view log, catches
// up by chunk transfer and is promoted, all without a second restart.
func TestChaosRejoinBehindFastForwardsViaViewLog(t *testing.T) {
	checkRejoinBehindSelfHeals(t, false)
}

// TestChaosGossipSelfHealsRejoinBehind is the same arc under one-way link
// cuts, which can starve any single announcer or fetch source.
func TestChaosGossipSelfHealsRejoinBehind(t *testing.T) {
	checkRejoinBehindSelfHeals(t, true)
}

// checkRejoinBehindSelfHeals runs the rejoin-behind arc over a few seeds, with
// or without asymmetric partitions. Red runs embed the seed.
func checkRejoinBehindSelfHeals(t *testing.T, asym bool) {
	t.Helper()
	for _, seed := range chaosSeeds(t, 4) {
		res, err := RunChaos(ChaosConfig{
			Seed:           seed,
			CrashRejoin:    true,
			RejoinBehind:   3,
			AsymPartitions: asym,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 1 || res.Restarts != 1 || res.Promotions != 1 {
			t.Fatalf("seed %d: crash/restart/promote = %d/%d/%d, want 1/1/1",
				seed, res.Crashes, res.Restarts, res.Promotions)
		}
		// The rejoined node was ≥ 3 epochs behind with no wire delivery
		// of the gap: only gossip-triggered view-log fetches can have
		// closed it.
		if res.GossipFF == 0 {
			t.Fatalf("seed %d: no gossip-triggered fetches — who healed the laggard?", seed)
		}
		if res.FFApplied < 3 {
			t.Fatalf("seed %d: only %d fetched updates applied, want >= 3 (the missed epochs)",
				seed, res.FFApplied)
		}
		// Served need not cover applied: a node-wide entry rolls at a
		// stagger, so the same entry in a second fetch answer still advances
		// a not-yet-rolled shard and counts again.
		if res.FFServed == 0 {
			t.Fatalf("seed %d: %d entries applied but no peer served any", seed, res.FFApplied)
		}
		// awaitConvergence enforces reaching the target; this pins that
		// every live node ended on the same per-shard epochs.
		for n := 1; n < len(res.FinalEpochs); n++ {
			for s := range res.FinalEpochs[n] {
				if res.FinalEpochs[n][s] != res.FinalEpochs[0][s] {
					t.Fatalf("seed %d: final epochs diverge: node0=%v node%d=%v",
						seed, res.FinalEpochs[0], n, res.FinalEpochs[n])
				}
			}
		}
		if res.Ops == 0 {
			t.Fatalf("seed %d: no operations completed", seed)
		}
	}
}

// TestChaosAgentDrivenRollout drives every reconfiguration through real
// membership.Agents: the script proposes, Paxos decides over the lossy
// network, and each node's commit reaches its replica's shardhost.Host —
// the roll the live node runs. The full crash/rejoin/promote arc plus
// node-wide rollout storms must stay linearizable and converge on every
// shard, alone and with a node rejoining two epochs behind that catches up
// through gossip-triggered view-log fetches (node-wide entries, which roll
// too). The sweep must reach the roll's supersede and redelivery rules.
func TestChaosAgentDrivenRollout(t *testing.T) {
	var sum shardhost.RollerStats
	for _, behind := range []bool{false, true} {
		for _, seed := range chaosSeeds(t, 20) {
			cfg := ChaosConfig{
				Seed:        seed,
				CrashRejoin: true,
				ShardStorms: true,
			}
			if behind {
				cfg.RejoinBehind = 2
			}
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Installs < 3 {
				t.Fatalf("seed %d: only %d agent-decided views — the script never reached consensus", seed, res.Installs)
			}
			if res.Promotions != 1 {
				t.Fatalf("seed %d: %d promotions, want 1", seed, res.Promotions)
			}
			if res.Rollout.ShardInstalls == 0 {
				t.Fatalf("seed %d: no staggered installs — views bypassed the roll", seed)
			}
			// Agent decisions are node-wide: after convergence every shard of
			// every node sits on the same (final) epoch.
			final := res.FinalEpochs[0][0]
			for n, epochs := range res.FinalEpochs {
				for s, e := range epochs {
					if e != final {
						t.Fatalf("seed %d: node %d shard %d at epoch %d, want uniform %d",
							seed, n, s, e, final)
					}
				}
			}
			if res.Ops == 0 {
				t.Fatalf("seed %d: no operations completed", seed)
			}
			sum.Superseded += res.Rollout.Superseded
			sum.Redelivered += res.Rollout.Redelivered
		}
	}
	if sum.Superseded == 0 || sum.Redelivered == 0 {
		t.Fatalf("sweep never superseded a roll or dropped a redelivery: %+v", sum)
	}
}

// TestChaosRejoinBehindDeterministic pins exact replay for the fast-forward
// scenario specifically (the acceptance criterion asks for it by name).
func TestChaosRejoinBehindDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, CrashRejoin: true, RejoinBehind: 3}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs: fingerprints %x vs %x", fa, fb)
	}
	if a.GossipFF != b.GossipFF || a.FFApplied != b.FFApplied {
		t.Fatalf("fast-forward counters diverged across identical runs: %d/%d vs %d/%d",
			a.GossipFF, a.FFApplied, b.GossipFF, b.FFApplied)
	}
}
