// Package integration runs whole-cluster simulations of every protocol
// under network nemeses (loss, duplication, reordering jitter, crashes,
// partitions) and verifies the consistency contracts the paper claims:
// linearizability for Hermes (all optimization variants) and rCRAQ,
// convergence and session ordering for rZAB and lockstep.
package integration

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/craq"
	"repro/internal/linear"
	"repro/internal/lockstep"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/zab"
)

// recordingDriver issues a closed-loop mixed workload over a tiny keyspace
// (to force conflicts) and records a linearizability history.
type recordingDriver struct {
	c        *sim.Cluster
	hist     *linear.History
	nextID   uint64
	faaOK    int64 // sum of deltas of FAA ops that reported OK
	writesOK uint64
}

func newDriver(c *sim.Cluster) *recordingDriver {
	return &recordingDriver{c: c, hist: linear.NewHistory()}
}

// session starts one closed-loop client at node; opPick selects operation
// i. maxOps bounds the history size per session and think paces ops so a
// session spans the whole run.
func (d *recordingDriver) session(node proto.NodeID, until time.Duration,
	opPick func(i uint64) proto.ClientOp) {
	d.pacedSession(node, until, 0, 1<<32, opPick)
}

func (d *recordingDriver) pacedSession(node proto.NodeID, until, think time.Duration,
	maxOps uint64, opPick func(i uint64) proto.ClientOp) {
	var issue func()
	var i uint64
	issue = func() {
		if d.c.Engine().Now() >= until || d.c.Crashed(node) || i >= maxOps {
			return
		}
		op := opPick(i)
		i++
		d.nextID++
		op.ID = d.nextID
		kind := linear.KRead
		switch op.Kind {
		case proto.OpWrite:
			kind = linear.KWrite
		case proto.OpFAA:
			kind = linear.KFAA
		case proto.OpCAS:
			kind = linear.KCASOk // refined at completion
		}
		id := op.ID
		d.hist.Invoke(id, op.Key, kind, op.Value, op.Expected, d.c.Engine().Now())
		d.c.Submit(node, op, func(comp proto.Completion) {
			now := d.c.Engine().Now()
			switch comp.Status {
			case proto.OK:
				switch comp.Kind {
				case proto.OpRead:
					d.hist.Return(id, linear.KRead, comp.Value, now)
				case proto.OpWrite:
					d.hist.Return(id, linear.KWrite, nil, now)
					d.writesOK++
				case proto.OpFAA:
					d.hist.Return(id, linear.KFAA, comp.Value, now)
					d.faaOK += proto.DecodeInt64(op.Value)
				case proto.OpCAS:
					d.hist.Return(id, linear.KCASOk, nil, now)
				}
			case proto.CASFailed:
				d.hist.Return(id, linear.KCASFail, comp.Value, now)
			case proto.Aborted:
				// Hermes guarantees an aborted RMW never took effect.
				d.hist.Discard(id)
			case proto.NotOperational:
				d.hist.Discard(id)
			}
			if think > 0 {
				d.c.Engine().After(think, issue)
			} else {
				issue()
			}
		})
	}
	issue()
}

func checkLinearizable(t *testing.T, d *recordingDriver) {
	t.Helper()
	d.hist.Close()
	if k, res, ok := d.hist.CheckAll(); !ok {
		t.Fatalf("history of key %d not linearizable: %s", k, res.Info)
	}
}

// uniqueVal tags writes uniquely so the checker can distinguish them.
func uniqueVal(node proto.NodeID, i uint64) proto.Value {
	return proto.Value{byte(node), byte(i), byte(i >> 8), byte(i >> 16), 0x7E}
}

func mixedPick(node proto.NodeID, key func(i uint64) proto.Key) func(uint64) proto.ClientOp {
	return func(i uint64) proto.ClientOp {
		k := key(i)
		switch i % 3 {
		case 0:
			return proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: uniqueVal(node, i)}
		default:
			return proto.ClientOp{Kind: proto.OpRead, Key: k}
		}
	}
}

func hermesFactory(mut func(*core.Config)) sim.Factory {
	return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		cfg := core.Config{ID: id, View: view, Env: env, MLT: 300 * time.Microsecond}
		if mut != nil {
			mut(&cfg)
		}
		return core.New(cfg)
	}
}

func lossyNet() sim.NetConfig {
	return sim.NetConfig{
		BaseLatency: 2 * time.Microsecond,
		Jitter:      4 * time.Microsecond, // heavy reordering
		LossProb:    0.05,
		DupProb:     0.05,
	}
}

// runLinCheck spins a 5-node cluster of the given factory under the lossy
// nemesis with conflicting sessions and checks per-key linearizability.
func runLinCheck(t *testing.T, factory sim.Factory, seed int64) {
	t.Helper()
	c := sim.New(sim.Config{Nodes: 5, Factory: factory, Net: lossyNet(), Seed: seed})
	d := newDriver(c)
	const dur = 4 * time.Millisecond
	for n := proto.NodeID(0); n < 5; n++ {
		n := n
		d.session(n, dur, mixedPick(n, func(i uint64) proto.Key { return proto.Key(i % 3) }))
		d.session(n, dur, mixedPick(n, func(i uint64) proto.Key { return proto.Key((i + 1) % 3) }))
	}
	c.Engine().RunUntil(dur + 10*time.Millisecond) // drain: retries resolve
	checkLinearizable(t, d)
}

func TestHermesLinearizableUnderNemesis(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		runLinCheck(t, hermesFactory(nil), seed)
	}
}

func TestHermesO2LinearizableUnderNemesis(t *testing.T) {
	runLinCheck(t, hermesFactory(func(c *core.Config) {
		c.VirtualIDs = core.VirtualIDs(c.ID, 5, 4)
	}), 79)
}

func TestHermesNoLSCLinearizableUnderNemesis(t *testing.T) {
	runLinCheck(t, hermesFactory(func(c *core.Config) { c.NoLSC = true }), 80)
}

func TestCRAQLinearizableUnderNemesis(t *testing.T) {
	factory := func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return craq.New(craq.Config{ID: id, View: view, Env: env, MLT: 300 * time.Microsecond})
	}
	for seed := int64(0); seed < 5; seed++ {
		runLinCheck(t, factory, seed)
	}
}

// Crash nemesis: a node dies mid-run; RM reconfigures; the surviving
// majority's history must stay linearizable and writes must keep flowing.
func TestHermesLinearizableAcrossCrashAndMUpdate(t *testing.T) {
	c := sim.New(sim.Config{
		Nodes:   5,
		Factory: hermesFactory(func(cc *core.Config) { cc.MLT = 500 * time.Microsecond }),
		Net:     sim.NetConfig{BaseLatency: 2 * time.Microsecond, Jitter: time.Microsecond},
		Seed:    5,
		RM: &sim.RMParams{
			HeartbeatEvery: 100 * time.Microsecond,
			SuspectAfter:   500 * time.Microsecond,
			LeaseDur:       time.Millisecond,
		},
	})
	c.CrashAt(4, 2*time.Millisecond)
	d := newDriver(c)
	const dur = 12 * time.Millisecond
	for n := proto.NodeID(0); n < 5; n++ {
		n := n
		// Paced so each session spans the crash and the m-update while the
		// per-key history stays small enough to check.
		d.pacedSession(n, dur, 60*time.Microsecond, 150,
			mixedPick(n, func(i uint64) proto.Key { return proto.Key(i % 2) }))
	}
	c.Engine().RunUntil(dur + 10*time.Millisecond)
	if c.ViewChanges == 0 {
		t.Fatal("membership never reconfigured")
	}
	checkLinearizable(t, d)
	// Progress after the crash: a fresh write at a survivor completes.
	var done *proto.Completion
	c.Submit(0, proto.ClientOp{ID: 1 << 40, Kind: proto.OpWrite, Key: 9, Value: proto.Value("post")},
		func(comp proto.Completion) { done = &comp })
	c.Engine().RunUntil(c.Engine().Now() + 5*time.Millisecond)
	if done == nil || done.Status != proto.OK {
		t.Fatalf("no progress after m-update: %+v", done)
	}
}

// The FAA counter invariant: the final counter equals the sum of deltas of
// exactly the RMWs that reported OK — aborted RMWs provably never applied
// (at most one of concurrent RMWs commits, §3.6).
func TestHermesAbortedRMWsNeverApply(t *testing.T) {
	c := sim.New(sim.Config{Nodes: 3, Factory: hermesFactory(nil), Net: lossyNet(), Seed: 21})
	d := newDriver(c)
	const dur = 4 * time.Millisecond
	for n := proto.NodeID(0); n < 3; n++ {
		d.session(n, dur, func(i uint64) proto.ClientOp {
			return proto.ClientOp{Kind: proto.OpFAA, Key: 1, Value: proto.EncodeInt64(1)}
		})
	}
	// Drain thoroughly: all in-flight RMWs must resolve before summing.
	c.Engine().RunUntil(dur + 20*time.Millisecond)
	d.hist.Close()
	// Read the converged value at every node.
	finals := map[proto.NodeID]int64{}
	for n := proto.NodeID(0); n < 3; n++ {
		n := n
		c.Submit(n, proto.ClientOp{ID: uint64(1<<40) + uint64(n), Kind: proto.OpRead, Key: 1},
			func(comp proto.Completion) { finals[n] = proto.DecodeInt64(comp.Value) })
	}
	c.Engine().RunUntil(c.Engine().Now() + 20*time.Millisecond)
	if len(finals) != 3 {
		t.Fatalf("reads incomplete: %v", finals)
	}
	for n, v := range finals {
		if v != d.faaOK {
			t.Fatalf("node %d counter=%d but OK-FAA sum=%d (phantom or lost RMW)", n, v, d.faaOK)
		}
	}
	if d.faaOK == 0 {
		t.Fatal("no RMW committed at all")
	}
}

// ZAB is sequentially consistent: per-session read-your-writes must hold,
// and all replicas converge. (Its local reads are deliberately NOT checked
// for linearizability — the paper evaluates exactly this upper bound.)
func TestZABSessionOrderAndConvergence(t *testing.T) {
	factory := func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return zab.New(zab.Config{ID: id, View: view, Env: env, MLT: 300 * time.Microsecond})
	}
	c := sim.New(sim.Config{Nodes: 3, Factory: factory, Net: lossyNet(), Seed: 31})
	type sessState struct {
		lastWritten proto.Value
		violations  int
	}
	states := make([]*sessState, 3)
	var id uint64
	const dur = 4 * time.Millisecond
	for n := proto.NodeID(0); n < 3; n++ {
		n := n
		st := &sessState{}
		states[n] = st
		key := proto.Key(n) // per-session key isolates read-your-writes
		var issue func(i uint64)
		issue = func(i uint64) {
			if c.Engine().Now() >= dur {
				return
			}
			id++
			if i%2 == 0 {
				val := uniqueVal(n, i)
				c.Submit(n, proto.ClientOp{ID: id, Kind: proto.OpWrite, Key: key, Value: val},
					func(comp proto.Completion) {
						if comp.Status == proto.OK {
							st.lastWritten = val
						}
						issue(i + 1)
					})
				return
			}
			c.Submit(n, proto.ClientOp{ID: id, Kind: proto.OpRead, Key: key},
				func(comp proto.Completion) {
					if st.lastWritten != nil && string(comp.Value) != string(st.lastWritten) {
						st.violations++
					}
					issue(i + 1)
				})
		}
		issue(0)
	}
	c.Engine().RunUntil(dur + 20*time.Millisecond)
	for n, st := range states {
		if st.violations > 0 {
			t.Fatalf("session %d: %d read-your-writes violations", n, st.violations)
		}
	}
	// Convergence across replicas.
	for k := proto.Key(0); k < 3; k++ {
		var vals []string
		for n := proto.NodeID(0); n < 3; n++ {
			vals = append(vals, string(c.Replica(n).(*zab.Replica).Value(k)))
		}
		if vals[0] != vals[1] || vals[1] != vals[2] {
			t.Fatalf("key %d diverged: %q", k, vals)
		}
	}
}

// Lockstep delivers a single total order: replicas converge key-by-key.
func TestLockstepConvergenceUnderNemesis(t *testing.T) {
	factory := func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		return lockstep.New(lockstep.Config{ID: id, View: view, Env: env, MLT: 300 * time.Microsecond})
	}
	c := sim.New(sim.Config{Nodes: 3, Factory: factory, Net: lossyNet(), Seed: 41})
	var id uint64
	const dur = 4 * time.Millisecond
	for n := proto.NodeID(0); n < 3; n++ {
		n := n
		var issue func(i uint64)
		issue = func(i uint64) {
			if c.Engine().Now() >= dur {
				return
			}
			id++
			c.Submit(n, proto.ClientOp{ID: id, Kind: proto.OpWrite, Key: proto.Key(i % 2), Value: uniqueVal(n, i)},
				func(proto.Completion) { issue(i + 1) })
		}
		issue(0)
	}
	c.Engine().RunUntil(dur + 20*time.Millisecond)
	for k := proto.Key(0); k < 2; k++ {
		ref := c.Replica(0).(*lockstep.Replica).Value(k)
		for n := proto.NodeID(1); n < 3; n++ {
			if string(c.Replica(n).(*lockstep.Replica).Value(k)) != string(ref) {
				t.Fatalf("key %d diverged at node %d", k, n)
			}
		}
	}
}

// Partition nemesis: the minority side must stop serving (leases) and the
// majority side must keep accepting linearizable traffic after the
// m-update.
func TestHermesPartitionPrimarySideContinues(t *testing.T) {
	c := sim.New(sim.Config{
		Nodes:   5,
		Factory: hermesFactory(func(cc *core.Config) { cc.MLT = 500 * time.Microsecond }),
		Net:     sim.NetConfig{BaseLatency: 2 * time.Microsecond, Jitter: time.Microsecond},
		Seed:    51,
		RM: &sim.RMParams{
			HeartbeatEvery: 100 * time.Microsecond,
			SuspectAfter:   500 * time.Microsecond,
			LeaseDur:       time.Millisecond,
		},
	})
	// Cut {3,4} from {0,1,2} at t=1ms.
	c.Engine().At(time.Millisecond, func() {
		c.Network().SetPartition(func(a, b proto.NodeID) bool {
			return (a >= 3) != (b >= 3)
		})
	})
	c.Engine().RunUntil(15 * time.Millisecond)
	if c.ViewChanges == 0 {
		t.Fatal("no m-update on the primary side")
	}
	// Majority side serves.
	var done *proto.Completion
	c.Submit(0, proto.ClientOp{ID: 1, Kind: proto.OpWrite, Key: 1, Value: proto.Value("maj")},
		func(comp proto.Completion) { done = &comp })
	c.Engine().RunUntil(c.Engine().Now() + 5*time.Millisecond)
	if done == nil || done.Status != proto.OK {
		t.Fatalf("majority side blocked: %+v", done)
	}
	// Minority side refuses (lease lost).
	var minority *proto.Completion
	c.Submit(4, proto.ClientOp{ID: 2, Kind: proto.OpRead, Key: 1},
		func(comp proto.Completion) { minority = &comp })
	c.Engine().RunUntil(c.Engine().Now() + 5*time.Millisecond)
	if minority != nil && minority.Status == proto.OK {
		t.Fatal("minority-side replica served a read without a lease")
	}
}
