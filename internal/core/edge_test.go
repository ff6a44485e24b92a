package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
)

// A VAL that arrives while the key already carries a newer timestamp must
// be ignored (FVAL's exact-match rule).
func TestStaleVALIgnored(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "new") // ts (2,0)
	h.run()
	h.nodes[1].Deliver(0, VAL{Epoch: 1, Key: 1, TS: proto.TS{Version: 1, CID: 0}})
	if e := h.entry(1, 1); e.State != kvs.Valid || e.TS.Version != 2 {
		t.Fatalf("stale VAL disturbed state: %+v", e)
	}
}

// An ACK for a timestamp other than the pending one must not count toward
// commitment.
func TestMismatchedACKIgnored(t *testing.T) {
	h := newHarness(t, 3, nil)
	op := h.write(0, 1, "v") // pending ts (2,0)
	h.nodes[0].Deliver(1, ACK{Epoch: 1, Key: 1, TS: proto.TS{Version: 9, CID: 1}})
	h.nodes[0].Deliver(2, ACK{Epoch: 1, Key: 1, TS: proto.TS{Version: 9, CID: 1}})
	if h.hasCompletion(0, op) {
		t.Fatal("write committed on mismatched ACKs")
	}
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("real ACKs did not commit: %+v", c)
	}
}

// Duplicated ACKs from one follower must not substitute for the other's.
func TestDuplicateACKFromOneNodeInsufficient(t *testing.T) {
	h := newHarness(t, 3, nil)
	op := h.write(0, 1, "v")
	h.step() // INV -> node 1
	// Node 1's ACK, delivered twice.
	var ack envelope
	h.dropWhere(func(e envelope) bool {
		if _, is := e.msg.(ACK); is {
			ack = e
			return true
		}
		return false
	})
	h.nodes[0].Deliver(ack.from, ack.msg)
	h.nodes[0].Deliver(ack.from, ack.msg)
	if h.hasCompletion(0, op) {
		t.Fatal("write committed with ACKs from only one follower")
	}
}

// CAS against a missing key: nil expectation succeeds; non-nil fails with
// the observed (empty) value.
func TestCASOnMissingKey(t *testing.T) {
	h := newHarness(t, 3, nil)
	ok := h.cas(0, 9, "", "first")
	h.run()
	if c := h.completion(0, ok); c.Status != proto.OK {
		t.Fatalf("CAS(nil->v) on missing key: %+v", c)
	}
	fail := h.cas(1, 10, "nonempty", "x")
	if c := h.completion(1, fail); c.Status != proto.CASFailed || len(c.Value) != 0 {
		t.Fatalf("CAS(non-nil) on missing key: %+v", c)
	}
}

// Two nodes replay the same stuck write concurrently: both use the original
// timestamp, so the replays are idempotent and converge.
func TestDuelingReplaysConverge(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "v")
	// Lose every VAL: nodes 1 and 2 both stick Invalid.
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(VAL); return is }) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	// Reads at both stuck followers arm both replay timers.
	r1 := h.read(1, 1)
	r2 := h.read(2, 1)
	h.advance(15 * time.Millisecond) // both replay simultaneously
	if h.nodes[1].Metrics().Replays != 1 || h.nodes[2].Metrics().Replays != 1 {
		t.Fatal("expected replays at both followers")
	}
	h.run()
	for i := 0; i < 5; i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if c := h.completion(1, r1); string(c.Value) != "v" {
		t.Fatalf("r1: %+v", c)
	}
	if c := h.completion(2, r2); string(c.Value) != "v" {
		t.Fatalf("r2: %+v", c)
	}
	e := h.requireConverged(1)
	if e.TS != (proto.TS{Version: 2, CID: 0}) {
		t.Fatalf("replays changed the timestamp: %v", e.TS)
	}
}

// During the m-update transient, a node that was removed must not serve,
// and one that remains must.
func TestPartialMUpdateServingRules(t *testing.T) {
	h := newHarness(t, 3, nil)
	nv := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}
	h.nodes[2].OnViewChange(nv) // node 2 learns it is out
	op := h.read(2, 1)
	if c := h.completion(2, op); c.Status != proto.NotOperational {
		t.Fatalf("removed node served: %+v", c)
	}
	h.nodes[0].OnViewChange(nv)
	op = h.read(0, 1)
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("remaining node refused: %+v", c)
	}
}

// A learner never serves client requests even if asked directly.
func TestLearnerRejectsClients(t *testing.T) {
	h := newHarness(t, 3, nil)
	l := h.addLearner(3)
	op := h.submit(3, proto.ClientOp{Kind: proto.OpRead, Key: 1})
	if c := h.completion(3, op); c.Status != proto.NotOperational {
		t.Fatalf("learner served: %+v", c)
	}
	_ = l
}

// Write to a key while a replay of it is in flight: the write stalls until
// the replay validates, then applies on top.
func TestWriteQueuedBehindReplay(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "orig")
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(VAL); return is }) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	w := h.write(1, 1, "after") // stalls: key Invalid at node 1
	h.advance(15 * time.Millisecond)
	h.run()
	for i := 0; i < 5; i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if c := h.completion(1, w); c.Status != proto.OK {
		t.Fatalf("queued write: %+v", c)
	}
	e := h.requireConverged(1)
	if string(e.Value) != "after" {
		t.Fatalf("final=%q", e.Value)
	}
	// The replay kept (2,0); the write went on top with version 4.
	if e.TS.Version != 4 {
		t.Fatalf("ts=%v", e.TS)
	}
}

// Property: for any interleaving of writes from random nodes with random
// partial delivery, after quiescence every replica holds the same highest
// timestamp, and that timestamp belongs to one of the issued writes.
func TestQuickConvergenceProperty(t *testing.T) {
	f := func(seed int64, nWrites uint8) bool {
		n := int(nWrites%12) + 1
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 3, nil)
		for i := 0; i < n; i++ {
			h.write(proto.NodeID(rng.Intn(3)), 1, string(rune('A'+i)))
			if rng.Intn(3) == 0 {
				h.runShuffled(rng)
			}
		}
		for round := 0; round < 30; round++ {
			h.runShuffled(rng)
			h.advance(11 * time.Millisecond)
		}
		h.forceConverge(1)
		ref := h.entry(0, 1)
		for id := proto.NodeID(1); id < 3; id++ {
			e := h.entry(id, 1)
			if e.TS != ref.TS || string(e.Value) != string(ref.Value) {
				return false
			}
		}
		// The winner is one of the issued values.
		if len(ref.Value) != 1 || ref.Value[0] < 'A' || ref.Value[0] >= 'A'+byte(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Epoch tagging: a coordinator that moved to epoch 3 ignores ACKs tagged
// epoch 2 even if they match its pending timestamp.
func TestOldEpochACKDropped(t *testing.T) {
	h := newHarness(t, 3, nil)
	op := h.write(0, 1, "v")
	// ACKs generated in epoch 1.
	h.step()
	h.step()
	// Coordinator advances to epoch 2 before receiving them.
	nv := h.view.Clone()
	nv.Epoch = 2
	h.nodes[0].OnViewChange(nv)
	h.run() // old-epoch ACKs arrive and must be dropped
	if h.hasCompletion(0, op) {
		t.Fatal("committed with stale-epoch ACKs")
	}
	if h.nodes[0].Metrics().StaleEpochDrops == 0 {
		t.Fatal("drops not counted")
	}
	// Epoch convergence + retransmission completes it.
	h.nodes[1].OnViewChange(nv)
	h.nodes[2].OnViewChange(nv)
	h.view = nv
	h.advance(15 * time.Millisecond)
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("completion after epochs converge: %+v", c)
	}
}

// Reads arriving while the key is in Write state at the coordinator stall
// and complete with the new value once the write commits.
func TestReadAtCoordinatorDuringWrite(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "v")
	op := h.read(0, 1) // key is in Write state at node 0
	if h.hasCompletion(0, op) {
		t.Fatal("read served from Write state")
	}
	h.run()
	if c := h.completion(0, op); string(c.Value) != "v" {
		t.Fatalf("read: %+v", c)
	}
}

func TestNewPanicsWithoutEnv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(Config{ID: 0})
}

func TestUnknownMessagePanics(t *testing.T) {
	h := newHarness(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on foreign message type")
		}
	}()
	h.nodes[0].Deliver(0, struct{ X int }{1})
}
