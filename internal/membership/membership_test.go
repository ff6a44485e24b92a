package membership

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/proto"
)

// A miniature message-pool harness for agents, mirroring the one in
// internal/core but independent of it (package boundaries).
type mharness struct {
	t       *testing.T
	now     time.Duration
	agents  map[proto.NodeID]*Agent
	msgs    []menv
	crashed map[proto.NodeID]bool
	parts   map[[2]proto.NodeID]bool // blocked directed pairs
	views   map[proto.NodeID][]proto.View
	leases  map[proto.NodeID][]bool
}

type menv struct {
	from, to proto.NodeID
	msg      any
}

type magentEnv struct {
	h  *mharness
	id proto.NodeID
}

func (e *magentEnv) Now() time.Duration { return e.h.now }
func (e *magentEnv) Send(to proto.NodeID, m any) {
	e.h.msgs = append(e.h.msgs, menv{from: e.id, to: to, msg: m})
}
func (e *magentEnv) Complete(proto.Completion) {}

func newMHarness(t *testing.T, n int) *mharness {
	h := &mharness{
		t:       t,
		agents:  make(map[proto.NodeID]*Agent),
		crashed: make(map[proto.NodeID]bool),
		parts:   make(map[[2]proto.NodeID]bool),
		views:   make(map[proto.NodeID][]proto.View),
		leases:  make(map[proto.NodeID][]bool),
	}
	all := make([]proto.NodeID, n)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	view := proto.View{Epoch: 1, Members: append([]proto.NodeID(nil), all...)}
	for _, id := range all {
		id := id
		h.agents[id] = New(Config{
			ID: id, All: all, Initial: view,
			Env:            &magentEnv{h: h, id: id},
			HeartbeatEvery: 10 * time.Millisecond,
			SuspectAfter:   50 * time.Millisecond,
			LeaseDur:       100 * time.Millisecond,
			OnView:         func(v proto.View) { h.views[id] = append(h.views[id], v) },
			OnLease:        func(ok bool) { h.leases[id] = append(h.leases[id], ok) },
		})
	}
	return h
}

func (h *mharness) blocked(a, b proto.NodeID) bool {
	return h.parts[[2]proto.NodeID{a, b}] || h.parts[[2]proto.NodeID{b, a}]
}

func (h *mharness) deliverAll() {
	for i := 0; len(h.msgs) > 0; i++ {
		e := h.msgs[0]
		h.msgs = h.msgs[1:]
		if h.crashed[e.to] || h.crashed[e.from] || h.blocked(e.from, e.to) {
			continue
		}
		if a, ok := h.agents[e.to]; ok {
			a.Deliver(e.from, e.msg)
		}
		if i > 500000 {
			h.t.Fatal("membership message storm")
		}
	}
}

// runFor advances virtual time in heartbeat-sized steps, ticking all agents
// and flushing the network each step.
func (h *mharness) runFor(d time.Duration) {
	const step = 5 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		h.now += step
		for id, a := range h.agents {
			if !h.crashed[id] {
				a.Tick()
			}
		}
		h.deliverAll()
	}
}

func (h *mharness) partition(groupA, groupB []proto.NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			h.parts[[2]proto.NodeID{a, b}] = true
		}
	}
}

func (h *mharness) heal() { h.parts = make(map[[2]proto.NodeID]bool) }

func TestStableGroupKeepsView(t *testing.T) {
	h := newMHarness(t, 5)
	h.runFor(500 * time.Millisecond)
	for id, a := range h.agents {
		if got := a.View().Epoch; got != 1 {
			t.Fatalf("node %d: epoch advanced to %d with no failures", id, got)
		}
		if !a.Operational() {
			t.Fatalf("node %d lost its lease in a healthy group", id)
		}
	}
}

func TestCrashTriggersReconfiguration(t *testing.T) {
	h := newMHarness(t, 5)
	h.runFor(50 * time.Millisecond)
	h.crashed[4] = true
	h.runFor(600 * time.Millisecond)
	for id, a := range h.agents {
		if h.crashed[id] {
			continue
		}
		v := a.View()
		if v.Epoch < 2 {
			t.Fatalf("node %d: never reconfigured (epoch %d)", id, v.Epoch)
		}
		if v.Contains(4) {
			t.Fatalf("node %d: dead node still in view %v", id, v)
		}
		if len(v.Members) != 4 {
			t.Fatalf("node %d: view %v", id, v)
		}
	}
	// All survivors decided the same view.
	ref := h.agents[0].View()
	for id, a := range h.agents {
		if h.crashed[id] {
			continue
		}
		if got := a.View(); got.Epoch != ref.Epoch {
			t.Fatalf("node %d epoch %d vs %d: divergent decisions", id, got.Epoch, ref.Epoch)
		}
	}
}

func TestReconfigurationWaitsForLeaseExpiry(t *testing.T) {
	h := newMHarness(t, 3)
	h.runFor(50 * time.Millisecond)
	h.crashed[2] = true
	// SuspectAfter=50ms, LeaseDur=100ms: no m-update may complete before
	// suspicion + lease expiry (~150ms after silence starts).
	h.runFor(100 * time.Millisecond)
	for id, a := range h.agents {
		if h.crashed[id] {
			continue
		}
		if a.View().Epoch != 1 {
			t.Fatalf("node %d reconfigured before the dead node's lease expired", id)
		}
	}
	h.runFor(300 * time.Millisecond)
	if h.agents[0].View().Contains(2) {
		t.Fatal("reconfiguration never happened after lease expiry")
	}
}

func TestTwoSimultaneousCrashes(t *testing.T) {
	h := newMHarness(t, 5)
	h.runFor(50 * time.Millisecond)
	h.crashed[3] = true
	h.crashed[4] = true
	h.runFor(800 * time.Millisecond)
	v := h.agents[0].View()
	if len(v.Members) != 3 || v.Contains(3) || v.Contains(4) {
		t.Fatalf("view after double crash: %v", v)
	}
}

func TestMinorityPartitionLosesLeaseAndCannotReconfigure(t *testing.T) {
	h := newMHarness(t, 5)
	h.runFor(50 * time.Millisecond)
	// {0,1} split from {2,3,4}.
	h.partition([]proto.NodeID{0, 1}, []proto.NodeID{2, 3, 4})
	h.runFor(800 * time.Millisecond)

	// Minority: leases lost, no new epoch decided there.
	for _, id := range []proto.NodeID{0, 1} {
		if h.agents[id].Operational() {
			t.Fatalf("node %d on minority side still operational", id)
		}
	}
	// Majority: reconfigured to {2,3,4} and operational.
	for _, id := range []proto.NodeID{2, 3, 4} {
		a := h.agents[id]
		if !a.Operational() {
			t.Fatalf("node %d on majority side lost its lease", id)
		}
		v := a.View()
		if v.Contains(0) || v.Contains(1) || len(v.Members) != 3 {
			t.Fatalf("node %d: majority view %v", id, v)
		}
	}
	minorityEpoch := h.agents[0].View().Epoch
	majorityEpoch := h.agents[2].View().Epoch
	if minorityEpoch >= majorityEpoch {
		t.Fatalf("minority epoch %d >= majority %d: minority reconfigured!", minorityEpoch, majorityEpoch)
	}
}

func TestHealedPartitionCatchesUpViaHeartbeat(t *testing.T) {
	h := newMHarness(t, 5)
	h.runFor(50 * time.Millisecond)
	h.partition([]proto.NodeID{0, 1}, []proto.NodeID{2, 3, 4})
	h.runFor(800 * time.Millisecond)
	h.heal()
	h.runFor(300 * time.Millisecond)
	// The healed minority learns the new epoch through heartbeats+ViewReq.
	maj := h.agents[2].View().Epoch
	for _, id := range []proto.NodeID{0, 1} {
		if got := h.agents[id].View().Epoch; got != maj {
			t.Fatalf("node %d stuck at epoch %d (majority at %d)", id, got, maj)
		}
		// Lease restored by renewed heartbeats.
		if !h.agents[id].Operational() {
			t.Fatalf("node %d lease not restored after heal", id)
		}
	}
}

func TestProposeViewAddsLearner(t *testing.T) {
	h := newMHarness(t, 3)
	h.runFor(30 * time.Millisecond)
	h.agents[0].ProposeView([]proto.NodeID{0, 1, 2}, []proto.NodeID{5})
	h.runFor(100 * time.Millisecond)
	for id, a := range h.agents {
		v := a.View()
		if !v.IsLearner(5) {
			t.Fatalf("node %d: learner not installed: %v", id, v)
		}
		if v.Epoch != 2 {
			t.Fatalf("node %d: epoch %d", id, v.Epoch)
		}
	}
}

func TestDuelingProposersDecideOneView(t *testing.T) {
	// Two nodes propose different views for the same epoch concurrently;
	// Paxos must decide exactly one.
	h := newMHarness(t, 5)
	h.runFor(30 * time.Millisecond)
	h.agents[0].ProposeView([]proto.NodeID{0, 1, 2, 3}, nil)
	h.agents[4].ProposeView([]proto.NodeID{0, 1, 2, 4}, nil)
	h.runFor(500 * time.Millisecond)
	ref := h.agents[0].View()
	if ref.Epoch < 2 {
		t.Fatal("no decision reached")
	}
	for id, a := range h.agents {
		v := a.View()
		if v.Epoch >= 2 {
			// Any node that reached epoch 2 must agree on its membership.
			two := v
			if two.Epoch > 2 {
				continue
			}
			if len(two.Members) != len(h.agents[0].View().Members) && h.agents[0].View().Epoch == 2 {
				t.Fatalf("node %d decided different epoch-2 view: %v", id, two)
			}
		}
	}
	// Stronger check: collect epoch-2 views seen via OnView; all identical.
	var first *proto.View
	for id := range h.agents {
		for _, v := range h.views[id] {
			if v.Epoch != 2 {
				continue
			}
			v := v
			if first == nil {
				first = &v
				continue
			}
			if len(v.Members) != len(first.Members) {
				t.Fatalf("divergent epoch-2 decisions: %v vs %v", v, *first)
			}
			for i := range v.Members {
				if v.Members[i] != first.Members[i] {
					t.Fatalf("divergent epoch-2 decisions: %v vs %v", v, *first)
				}
			}
		}
	}
	if first == nil {
		t.Fatal("no epoch-2 view recorded")
	}
}

func TestMessageLossDuringReconfiguration(t *testing.T) {
	// Drop 20% of membership traffic while a node dies; the group must
	// still converge on a new view.
	rng := rand.New(rand.NewSource(3))
	h := newMHarness(t, 5)
	h.runFor(50 * time.Millisecond)
	h.crashed[4] = true
	const step = 5 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < 1200*time.Millisecond; elapsed += step {
		h.now += step
		for id, a := range h.agents {
			if !h.crashed[id] {
				a.Tick()
			}
		}
		// Random loss.
		kept := h.msgs[:0]
		for _, e := range h.msgs {
			if rng.Float64() >= 0.2 {
				kept = append(kept, e)
			}
		}
		h.msgs = kept
		h.deliverAll()
	}
	for id, a := range h.agents {
		if h.crashed[id] {
			continue
		}
		if a.View().Contains(4) {
			t.Fatalf("node %d never removed the dead node despite retries", id)
		}
	}
}

func TestLeaseLostWhenIsolated(t *testing.T) {
	h := newMHarness(t, 3)
	h.runFor(50 * time.Millisecond)
	h.partition([]proto.NodeID{0}, []proto.NodeID{1, 2})
	h.runFor(400 * time.Millisecond)
	if h.agents[0].Operational() {
		t.Fatal("isolated node kept its lease")
	}
	// OnLease fired with false.
	fired := false
	for _, ok := range h.leases[0] {
		if !ok {
			fired = true
		}
	}
	if !fired {
		t.Fatal("OnLease(false) never fired")
	}
}

func TestIsMsg(t *testing.T) {
	for _, m := range []any{Heartbeat{}, ViewReq{}, ViewCommit{}, Prepare{}, Promise{}, Accept{}, Accepted{}} {
		if !IsMsg(m) {
			t.Fatalf("IsMsg(%T)=false", m)
		}
	}
	if IsMsg(42) || IsMsg("x") {
		t.Fatal("IsMsg accepted a foreign type")
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := New(Config{ID: 0, All: []proto.NodeID{0}, Initial: proto.View{Epoch: 1, Members: []proto.NodeID{0}},
		Env: &magentEnv{h: &mharness{}, id: 0}})
	if a.cfg.HeartbeatEvery <= 0 || a.cfg.SuspectAfter <= 0 || a.cfg.LeaseDur <= 0 {
		t.Fatal("defaults not applied")
	}
	if !a.Operational() {
		t.Fatal("single node should be operational (is its own majority)")
	}
}
