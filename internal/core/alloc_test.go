package core

import (
	"testing"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
)

// Allocation budgets of one handler turn, against an Env that discards what
// it is sent: what core itself feeds the collector per write. The live write
// path crosses one coordinator turn and two follower turns (see "Allocation
// budget of a replicated write" in internal/README.md).

// nullEnv goes nowhere; it remembers the last INV's timestamp so a test can
// acknowledge it.
type nullEnv struct {
	now     time.Duration
	lastINV proto.TS
}

func (e *nullEnv) Now() time.Duration { e.now += time.Microsecond; return e.now }
func (e *nullEnv) Send(_ proto.NodeID, msg any) {
	if inv, ok := msg.(INV); ok {
		e.lastINV = inv.TS
	}
}
func (e *nullEnv) Complete(proto.Completion) {}

func allocView() proto.View { return proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}} }

// TestCoordinatorTurnAllocationBudget: Submit plus the two followers' ACKs
// costs two allocations, both forced — the INV and the VAL boxed once each
// for Env.Send(any). The 32 B value is written into the slot's inline words,
// so no store entry is published, and the return to Valid is one store of
// the slot's state word. The key's meta, its pending update and its store
// slot come from the free list and the one lookup of the first turn.
func TestCoordinatorTurnAllocationBudget(t *testing.T) {
	env := &nullEnv{}
	h := New(Config{ID: 0, View: allocView(), Env: env, MLT: time.Second})
	val := make(proto.Value, 32)
	k := proto.Key(0)
	turn := func() {
		k = (k + 1) % 64
		h.Submit(proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: val})
		ack := ACK{Epoch: 1, Key: k, TS: env.lastINV}
		h.Deliver(1, ack)
		h.Deliver(2, ack)
	}
	for i := 0; i < 64; i++ {
		turn() // every key gets its store slot
	}
	if n := testing.AllocsPerRun(500, turn); n > 2 {
		t.Fatalf("coordinator Submit + 2×ACK allocates %.0f times, want <= 2", n)
	}
	if len(h.meta) != 0 {
		t.Fatalf("%d metas left behind by committed writes", len(h.meta))
	}
	if m := h.Metrics(); m.Writes == 0 || m.VALsSent != 2*m.Writes {
		t.Fatalf("writes did not commit: %+v", m)
	}
}

// TestFollowerTurnAllocationBudget: an INV and its VAL cost one — the ACK
// boxed for Env.Send. The INV's 32 B value is copied into the slot's inline
// words (no store entry), and the VAL allocates nothing: it looks the key's
// coordination state up and, finding none, only stores the slot's state word.
func TestFollowerTurnAllocationBudget(t *testing.T) {
	h := New(Config{ID: 1, View: allocView(), Env: &nullEnv{}, MLT: time.Second})
	val := make(proto.Value, 32)
	k, ts := proto.Key(0), proto.TS{Version: 2}
	turn := func() {
		if k = (k + 1) % 64; k == 0 {
			ts.Version += 2
		}
		h.Deliver(0, INV{Epoch: 1, Key: k, TS: ts, Value: val})
		h.Deliver(0, VAL{Epoch: 1, Key: k, TS: ts})
	}
	for i := 0; i < 64; i++ {
		turn()
	}
	if n := testing.AllocsPerRun(500, turn); n > 1 {
		t.Fatalf("follower INV + VAL allocates %.0f times, want <= 1", n)
	}
	if len(h.meta) != 0 || len(h.freeMeta) != 0 {
		t.Fatalf("follower turns touched coordination state: %d metas, %d recycled", len(h.meta), len(h.freeMeta))
	}
	if e := h.entry(k); e.State != kvs.Valid || e.TS != ts {
		t.Fatalf("key %d after its turn: %+v, want Valid at %v", k, e, ts)
	}
}

// TestMetaRecycledAndReset: a meta dropped by gc is reused for the next key
// fully reset, and a gc reached twice in one turn (validate, then the
// handler's tail) frees it once.
func TestMetaRecycledAndReset(t *testing.T) {
	h := newHarness(t, 3, nil)
	n0 := h.nodes[0]
	h.submit(0, proto.ClientOp{Kind: proto.OpWrite, Key: 1, Value: proto.Value("a")})
	m1 := n0.meta[1]
	if m1 == nil || m1.pend == nil {
		t.Fatal("no pending update for key 1")
	}
	m1.pend.slipped = true // must not leak into the next user of the meta
	h.run()
	if len(n0.meta) != 0 || len(n0.freeMeta) != 1 || n0.freeMeta[0] != m1 {
		t.Fatalf("after commit: %d metas, free list %v", len(n0.meta), n0.freeMeta)
	}
	n0.gc(1, m1) // a second gc of a recycled meta is a no-op
	if len(n0.freeMeta) != 1 {
		t.Fatalf("double gc pushed the meta twice: free list %v", n0.freeMeta)
	}
	h.submit(0, proto.ClientOp{Kind: proto.OpWrite, Key: 2, Value: proto.Value("b")})
	m2 := n0.meta[2]
	if m2 != m1 {
		t.Fatal("the recycled meta was not reused")
	}
	if m2.pend == nil || m2.pend.slipped || m2.pend.acked != (nodeSet{}) || len(m2.waiters) != 0 || m2.replayAt != 0 || m2.ackers != nil {
		t.Fatalf("reused meta not reset: %+v pend %+v", m2, m2.pend)
	}
	h.run()
	for id := proto.NodeID(0); id < 3; id++ {
		if e := h.entry(id, 2); string(e.Value) != "b" || e.State != kvs.Valid {
			t.Fatalf("node %d key 2: %+v", id, e)
		}
	}
}
