package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/workload"
)

// hermesFactory builds Hermes replicas for simulator tests.
func hermesFactory(mlt time.Duration) Factory {
	return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return core.New(core.Config{ID: id, View: view, Env: env, MLT: mlt})
	}
}

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	return New(Config{
		Nodes:   nodes,
		Factory: hermesFactory(500 * time.Microsecond),
		Net:     DefaultNet(),
		Seed:    1,
	})
}

func TestClusterSingleWrite(t *testing.T) {
	c := newTestCluster(t, 3)
	var done *proto.Completion
	c.Submit(0, proto.ClientOp{ID: 1, Kind: proto.OpWrite, Key: 7, Value: proto.Value("v")},
		func(comp proto.Completion) { done = &comp })
	c.Engine().RunUntil(time.Millisecond)
	if done == nil || done.Status != proto.OK {
		t.Fatalf("write did not complete: %+v", done)
	}
	// The write took at least one network round-trip of virtual time.
	var read *proto.Completion
	c.Submit(1, proto.ClientOp{ID: 2, Kind: proto.OpRead, Key: 7},
		func(comp proto.Completion) { read = &comp })
	c.Engine().RunUntil(2 * time.Millisecond)
	if read == nil || string(read.Value) != "v" {
		t.Fatalf("read at another replica: %+v", read)
	}
}

func TestClusterWorkloadRunProducesStats(t *testing.T) {
	c := newTestCluster(t, 3)
	res := c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 256, WriteRatio: 0.2, ValueSize: 32},
		SessionsPerNode: 2,
		Warmup:          200 * time.Microsecond,
		Duration:        5 * time.Millisecond,
	})
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.Read.Count() == 0 || res.Write.Count() == 0 {
		t.Fatalf("histograms empty: reads=%d writes=%d", res.Read.Count(), res.Write.Count())
	}
	// Writes traverse the network; reads are local. Medians must reflect it.
	if res.Write.Median() <= res.Read.Median() {
		t.Fatalf("write median %v <= read median %v", res.Write.Median(), res.Read.Median())
	}
	if res.MsgsSent == 0 {
		t.Fatal("no messages counted")
	}
}

func TestClusterReadOnlyIsLocal(t *testing.T) {
	c := newTestCluster(t, 5)
	res := c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 256, WriteRatio: 0},
		SessionsPerNode: 2,
		Duration:        2 * time.Millisecond,
	})
	if res.MsgsSent != 0 {
		t.Fatalf("read-only workload sent %d messages", res.MsgsSent)
	}
	if res.Ops == 0 {
		t.Fatal("no reads completed")
	}
}

func TestClusterThroughputScalesWithNodes(t *testing.T) {
	// Read-only: more replicas, proportionally more local throughput
	// (load-balanced local reads, §2.3).
	run := func(n int) float64 {
		c := newTestCluster(t, n)
		res := c.RunWorkload(WorkloadParams{
			Workload:        workload.Config{Keys: 1024, WriteRatio: 0},
			SessionsPerNode: 4,
			Warmup:          time.Millisecond,
			Duration:        5 * time.Millisecond,
		})
		return res.Throughput
	}
	t3, t7 := run(3), run(7)
	if t7 < 1.8*t3 {
		t.Fatalf("7-node read throughput %.0f not ~2.3x 3-node %.0f", t7, t3)
	}
}

func TestClusterCrashWithoutRMBlocksWrites(t *testing.T) {
	c := newTestCluster(t, 3)
	c.CrashAt(2, 0)
	c.Engine().RunUntil(10 * time.Microsecond)
	var done *proto.Completion
	c.Submit(0, proto.ClientOp{ID: 1, Kind: proto.OpWrite, Key: 1, Value: proto.Value("v")},
		func(comp proto.Completion) { done = &comp })
	c.Engine().RunUntil(5 * time.Millisecond)
	if done != nil {
		t.Fatal("write committed without the crashed follower's ACK and no m-update")
	}
	// Installing a view without the dead node releases it.
	c.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
	c.Engine().RunUntil(10 * time.Millisecond)
	if done == nil || done.Status != proto.OK {
		t.Fatalf("write still blocked after m-update: %+v", done)
	}
}

// TestClusterStaleAckDoesNotCountForRejoinedNode pins core.OnViewChange's
// gathered-ACK reset (the bug TestChaosStaleAckIncarnation was found on): a
// pending write holds node 2's ACK, node 2 crashes, is removed and rejoins as
// a learner while the write still waits on node 1. The dead incarnation's
// ACK must not count for the new one, so with the coordinator's link to the
// restarted node cut, node 1's ACK alone must not commit the write.
func TestClusterStaleAckDoesNotCountForRejoinedNode(t *testing.T) {
	c := New(Config{
		Nodes:   3,
		Factory: hermesFactory(500 * time.Microsecond),
		Net:     NetConfig{BaseLatency: 2 * time.Microsecond},
		Seed:    1,
	})
	net, eng := c.Network(), c.Engine()
	net.SetLinkBlocked(0, 1, true) // the write waits on node 1
	var done *proto.Completion
	c.Submit(0, proto.ClientOp{ID: 1, Kind: proto.OpWrite, Key: 1, Value: proto.Value("v")},
		func(comp proto.Completion) { done = &comp })
	eng.RunUntil(100 * time.Microsecond) // node 2 has ACKed

	c.CrashAt(2, eng.Now())
	eng.RunUntil(eng.Now() + time.Microsecond)
	c.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
	rejoin := proto.View{Epoch: 3, Members: []proto.NodeID{0, 1}, Learners: []proto.NodeID{2}}
	c.Restart(2, func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return core.New(core.Config{ID: id, View: view, Env: env, MLT: 500 * time.Microsecond, Learner: true})
	}, rejoin)
	net.SetLinkBlocked(0, 2, true) // the new incarnation never sees the INV
	c.InstallView(rejoin)
	net.SetLinkBlocked(0, 1, false)
	eng.RunUntil(eng.Now() + 5*time.Millisecond)
	if done != nil {
		t.Fatalf("write committed on the dead incarnation's ACK: %+v", done)
	}

	net.SetLinkBlocked(0, 2, false)
	eng.RunUntil(eng.Now() + 5*time.Millisecond)
	if done == nil || done.Status != proto.OK {
		t.Fatalf("write still blocked once the learner can ACK: %+v", done)
	}
}

// End-to-end failure experiment shape (Fig. 9): with RM enabled, a crash
// stalls writes until suspicion + lease expiry produce an m-update, after
// which throughput recovers.
func TestClusterFailureRecoveryWithRM(t *testing.T) {
	c := New(Config{
		Nodes:   5,
		Factory: hermesFactory(2 * time.Millisecond),
		Net:     DefaultNet(),
		Seed:    3,
		RM: &RMParams{
			HeartbeatEvery: 200 * time.Microsecond,
			SuspectAfter:   time.Millisecond,
			LeaseDur:       2 * time.Millisecond,
		},
	})
	c.CrashAt(4, 3*time.Millisecond)
	res := c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 64, WriteRatio: 0.2, ValueSize: 32},
		SessionsPerNode: 2,
		Duration:        30 * time.Millisecond,
		SeriesBucket:    time.Millisecond,
	})
	if c.ViewChanges == 0 {
		t.Fatal("no m-update happened")
	}
	rates := res.Series.Rates()
	if len(rates) < 25 {
		t.Fatalf("series too short: %d buckets", len(rates))
	}
	pre := rates[1]
	// Shortly after the crash, throughput must dip (writes blocked on the
	// dead node's ACKs).
	dip := rates[5]
	if dip > pre/2 {
		t.Fatalf("no dip after crash: pre=%.0f dip=%.0f", pre, dip)
	}
	// By the end it must have recovered substantially.
	tail := rates[len(rates)-2]
	if tail < pre/2 {
		t.Fatalf("no recovery: pre=%.0f tail=%.0f", pre, tail)
	}
}

func TestClusterUtilizationAccounting(t *testing.T) {
	c := newTestCluster(t, 3)
	c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 64, WriteRatio: 0.5},
		SessionsPerNode: 4,
		Duration:        2 * time.Millisecond,
	})
	for i, u := range c.Utilization() {
		if u <= 0 || u > 1.01 {
			t.Fatalf("node %d utilization %.3f out of range", i, u)
		}
	}
}

func TestClusterRMWAbortsSurfaceInResult(t *testing.T) {
	c := newTestCluster(t, 3)
	res := c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 1, WriteRatio: 1, RMWRatio: 1},
		SessionsPerNode: 4,
		Duration:        5 * time.Millisecond,
		Seed:            9,
	})
	if res.Ops == 0 {
		t.Fatal("no RMWs completed")
	}
	if res.Aborts == 0 {
		t.Fatal("single hot key, 12 concurrent RMW sessions: expected aborts")
	}
}

func TestClusterRetryAborts(t *testing.T) {
	c := newTestCluster(t, 3)
	res := c.RunWorkload(WorkloadParams{
		Workload:        workload.Config{Keys: 1, WriteRatio: 1, RMWRatio: 1},
		SessionsPerNode: 2,
		Duration:        5 * time.Millisecond,
		RetryAborts:     true,
		Seed:            11,
	})
	if res.Aborts == 0 {
		t.Fatal("expected aborts on a hot key")
	}
	if res.Ops == 0 {
		t.Fatal("retries starved all progress")
	}
}

func TestDefaultCostsSane(t *testing.T) {
	co := DefaultCosts()
	if co.ClientOp <= 0 || co.Message <= 0 {
		t.Fatal("bad defaults")
	}
}
