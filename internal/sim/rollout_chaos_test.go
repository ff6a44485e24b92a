package sim

import (
	"testing"

	"repro/internal/shardhost"
)

// Chaos scenarios for the automatic reconfiguration pipeline: the view-log
// fast-forward of a node that rejoined epochs behind, and agent-driven
// staggered rollouts replacing harness-pushed installs.

// TestChaosRejoinBehindFastForwardsViaViewLog is the acceptance regression
// for the view log: a node crashes, misses the removal plus three more
// epochs plus its own learner-add (none of which the harness ever
// re-delivers), restarts on its stale pre-crash view — and must fast-forward
// every shard through peers' view logs, catch up by chunk transfer and get
// promoted, all without a second restart. Red runs embed the seed.
func TestChaosRejoinBehindFastForwardsViaViewLog(t *testing.T) {
	for _, seed := range chaosSeeds(t, 4) {
		res, err := RunChaos(ChaosConfig{
			Seed:         seed,
			CrashRejoin:  true,
			RejoinBehind: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 1 || res.Restarts != 1 || res.Promotions != 1 {
			t.Fatalf("seed %d: crash/restart/promote = %d/%d/%d, want 1/1/1",
				seed, res.Crashes, res.Restarts, res.Promotions)
		}
		// The rejoined node was ≥ 3 epochs behind with no wire delivery of
		// the gap: only view-log fetches can have closed it.
		if res.FastForwards == 0 {
			t.Fatalf("seed %d: no view-log fetches issued — the laggard recovered through a backdoor", seed)
		}
		if res.FFApplied < 3 {
			t.Fatalf("seed %d: only %d fetched updates applied, want >= 3 (the missed epochs)",
				seed, res.FFApplied)
		}
		if res.FFServed < res.FFApplied {
			t.Fatalf("seed %d: served %d < applied %d — entries applied that nobody served",
				seed, res.FFServed, res.FFApplied)
		}
		// Convergence is asserted inside RunChaos (awaitConvergence); the
		// epochs here document it.
		for n, epochs := range res.FinalEpochs {
			for s, e := range epochs {
				if e < res.FinalEpochs[0][s] {
					t.Fatalf("seed %d: node %d shard %d at epoch %d, behind node 0's %d",
						seed, n, s, e, res.FinalEpochs[0][s])
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
// network, and each node's commit reaches its replica's shardhost.Roller —
// the live rollout controller's rules. The full crash/rejoin/promote arc plus
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
				AgentDriven: true,
				CrashRejoin: true,
				ShardStorms: true, // node-wide rollout storms in agent mode
			}
			if behind {
				cfg.RejoinBehind, cfg.Gossip = 2, true
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

// TestChaosAgentDrivenDeterministic extends the replayable-seed contract to
// agent-driven runs: Paxos traffic, staggered rollouts and view-log fetches
// all ride the seeded engine, so two runs of one seed are byte-identical.
func TestChaosAgentDrivenDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Seed:        99,
		AgentDriven: true,
		CrashRejoin: true,
		ShardStorms: true,
		LeaseFlips:  true,
	}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs: fingerprints %x vs %x (ops %d vs %d)",
			fa, fb, a.Ops, b.Ops)
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
	if a.FastForwards != b.FastForwards || a.FFApplied != b.FFApplied {
		t.Fatalf("fast-forward counters diverged across identical runs: %d/%d vs %d/%d",
			a.FastForwards, a.FFApplied, b.FastForwards, b.FFApplied)
	}
}
