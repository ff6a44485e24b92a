package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
)

func TestLostVALTriggersReplay(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "v")
	// Let INVs and ACKs flow, but drop every VAL.
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(VAL); return is }) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	if e := h.entry(1, 1); e.State != kvs.Invalid {
		t.Fatalf("follower should be stuck Invalid, got %v", e.State)
	}

	// A read arrives on the stuck key; it stalls and arms the mlt timer.
	op := h.read(1, 1)
	if h.hasCompletion(1, op) {
		t.Fatal("read served from Invalid key")
	}

	// Before mlt expires nothing happens.
	h.advance(5 * time.Millisecond)
	if h.nodes[1].Metrics().Replays != 0 {
		t.Fatal("replay fired before mlt")
	}
	// After mlt, node 1 replays the write with the original timestamp.
	h.advance(10 * time.Millisecond)
	if h.nodes[1].Metrics().Replays != 1 {
		t.Fatal("replay did not fire after mlt")
	}
	h.run()
	c := h.completion(1, op)
	if c.Status != proto.OK || string(c.Value) != "v" {
		t.Fatalf("read after replay: %+v", c)
	}
	e := h.requireConverged(1)
	// Replay preserves the original timestamp: version 2, cid 0.
	if e.TS != (proto.TS{Version: 2, CID: 0}) {
		t.Fatalf("replayed ts=%v, want original (2,0)", e.TS)
	}
}

func TestLostINVRetransmittedByCoordinator(t *testing.T) {
	h := newHarness(t, 3, nil)
	op := h.write(0, 1, "v")
	// Drop the INV to node 2; deliver the rest.
	h.dropWhere(func(e envelope) bool { _, is := e.msg.(INV); return is && e.to == 2 })
	h.run()
	if h.hasCompletion(0, op) {
		t.Fatal("write committed without node 2's ACK")
	}
	// mlt expiry retransmits only to the unacknowledged follower.
	h.advance(15 * time.Millisecond)
	if h.nodes[0].Metrics().Retransmits != 1 {
		t.Fatalf("retransmits=%d", h.nodes[0].Metrics().Retransmits)
	}
	invs := 0
	for _, e := range h.msgs {
		if _, is := e.msg.(INV); is {
			invs++
			if e.to != 2 {
				t.Fatalf("retransmitted INV to %d (already ACKed)", e.to)
			}
		}
	}
	if invs != 1 {
		t.Fatalf("%d INVs retransmitted, want 1", invs)
	}
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("completion after retransmit: %+v", c)
	}
	h.requireConverged(1)
}

// The full §3.5 / Figure 4 scenario: concurrent writes by nodes 0 and 2,
// node 2's VAL to node 0 is lost and node 2 crashes; after the m-update,
// a read at node 0 replays node 2's write (original timestamp) and the
// surviving nodes converge on it.
func TestFigure4NodeFailureAndWriteReplay(t *testing.T) {
	h := newHarness(t, 3, nil)
	opA1 := h.write(0, 1, "1") // A=1 at node 0: ts (2,0)
	opA3 := h.write(2, 1, "3") // A=3 at node 2: ts (2,2)

	// Run the two writes, but drop node 2's VAL to node 0.
	for {
		if h.dropWhere(func(e envelope) bool {
			_, is := e.msg.(VAL)
			return is && e.from == 2 && e.to == 0
		}) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	if !h.hasCompletion(0, opA1) || !h.hasCompletion(2, opA3) {
		t.Fatal("both writes should have committed")
	}
	// Node 0 was in Trans (its write superseded) and, having completed,
	// fell back to Invalid awaiting node 2's VAL — which was dropped.
	if e := h.entry(0, 1); e.State != kvs.Invalid || string(e.Value) != "3" {
		t.Fatalf("node 0: %+v", e)
	}

	// Node 2 crashes; leases expire and the membership is updated.
	h.crash(2)
	h.removeFromView(2)

	// A read at node 0 finds A Invalid(ated) by a failed node and, after
	// mlt, replays node 2's write using the stored timestamp and value.
	op := h.read(0, 1)
	h.advance(15 * time.Millisecond)
	h.run()
	c := h.completion(0, op)
	if c.Status != proto.OK || string(c.Value) != "3" {
		t.Fatalf("read after replay: %+v", c)
	}
	if h.nodes[0].Metrics().Replays != 1 {
		t.Fatal("no replay recorded")
	}
	e := h.requireConverged(1)
	// The replay preserved node 2's timestamp: linearized exactly where the
	// failed coordinator's write was.
	if e.TS != (proto.TS{Version: 2, CID: 2}) {
		t.Fatalf("ts=%v, want (2,2)", e.TS)
	}
}

func TestPendingWriteCompletesAfterFollowerCrash(t *testing.T) {
	h := newHarness(t, 5, nil)
	op := h.write(0, 1, "v")
	// Node 4 crashes before ACKing.
	h.dropWhere(func(e envelope) bool { return e.to == 4 })
	h.crash(4)
	h.run()
	if h.hasCompletion(0, op) {
		t.Fatal("write committed while waiting on a dead node (membership not yet updated)")
	}
	// The m-update removes node 4; the coordinator no longer owes it an ACK.
	h.removeFromView(4)
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("completion after m-update: %+v", c)
	}
	h.requireConverged(1)
}

func TestViewChangeRetransmitsWithNewEpoch(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "v")
	// Drop everything: followers never heard the INV.
	h.dropWhere(func(envelope) bool { return true })
	// Membership reconfigures (e.g. another shard's fault); epoch bumps.
	nv := h.view.Clone()
	nv.Epoch++
	h.installView(nv)
	// The view change rebroadcast the INV tagged with the new epoch.
	found := false
	for _, e := range h.msgs {
		if inv, is := e.msg.(INV); is {
			found = true
			if inv.Epoch != nv.Epoch {
				t.Fatalf("rebroadcast INV epoch=%d want %d", inv.Epoch, nv.Epoch)
			}
		}
	}
	if !found {
		t.Fatal("no INV rebroadcast on view change")
	}
	h.run()
	h.requireConverged(1)
}

// During the transient period of an m-update, followers that have not yet
// received the new view drop the coordinator's higher-epoch INVs; the write
// blocks until everyone is current, then commits (§3.4 Membership
// reconfiguration).
func TestWriteBlocksUntilAllFollowersReachNewEpoch(t *testing.T) {
	h := newHarness(t, 3, nil)
	nv := h.view.Clone()
	nv.Epoch++
	// Only node 0 has the m-update so far.
	h.nodes[0].OnViewChange(nv)
	op := h.write(0, 1, "v")
	h.run()
	if h.hasCompletion(0, op) {
		t.Fatal("write committed while followers were in the old epoch")
	}
	if h.nodes[1].Metrics().StaleEpochDrops == 0 {
		t.Fatal("followers should have dropped the new-epoch INVs")
	}
	// The followers receive the m-update; the coordinator's mlt
	// retransmission then reaches them.
	h.nodes[1].OnViewChange(nv)
	h.nodes[2].OnViewChange(nv)
	h.view = nv
	h.advance(15 * time.Millisecond)
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("completion after epoch sync: %+v", c)
	}
	h.requireConverged(1)
}

func TestMessageLossEverywhereEventuallyConverges(t *testing.T) {
	// Randomly drop 30% of messages; ticks must recover everything.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 3, nil)
		var ops []uint64
		for i := 0; i < 5; i++ {
			ops = append(ops, h.write(proto.NodeID(rng.Intn(3)), 1, string(rune('a'+i))))
		}
		for round := 0; round < 60; round++ {
			h.dropWhere(func(envelope) bool { return rng.Float64() < 0.3 })
			h.runShuffled(rng)
			h.advance(11 * time.Millisecond)
		}
		h.run()
		h.forceConverge(1)
		h.requireConverged(1)
		for i, op := range ops {
			done := false
			for id := range h.nodes {
				if h.hasCompletion(id, op) {
					done = true
				}
			}
			if !done {
				t.Fatalf("seed %d: write %d lost forever", seed, i)
			}
		}
	}
}

func TestReplaySupersededByNewerWrite(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "old")
	// Drop VALs so node 1 sticks Invalid, then let it start a replay.
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(VAL); return is }) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	h.read(1, 1)
	h.advance(15 * time.Millisecond) // replay begins at node 1
	if h.nodes[1].Metrics().Replays != 1 {
		t.Fatal("expected replay")
	}
	// Before the replay's INVs land, node 2 writes a newer value, which
	// reaches node 1 and supersedes the replay.
	h.write(2, 1, "newer")
	h.runShuffled(rand.New(rand.NewSource(4)))
	for i := 0; i < 5; i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	e := h.requireConverged(1)
	if string(e.Value) != "newer" {
		t.Fatalf("converged on %q", e.Value)
	}
}

func TestRemovedNodeStopsServing(t *testing.T) {
	h := newHarness(t, 3, nil)
	// Node 2 is removed (e.g. suspected dead while actually partitioned).
	nv := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}
	h.nodes[2].OnViewChange(nv)
	op := h.read(2, 1)
	if c := h.completion(2, op); c.Status != proto.NotOperational {
		t.Fatalf("removed node served a request: %+v", c)
	}
}

func TestLearnerCatchUpAndPromotion(t *testing.T) {
	h := newHarness(t, 3, nil)
	// Seed the store with data.
	for k := proto.Key(0); k < 100; k++ {
		h.write(proto.NodeID(k%3), k, "seed")
	}
	h.run()

	l := h.addLearner(3)
	if l.Operational() {
		t.Fatal("learner must not serve requests")
	}
	// A write during catch-up must include the learner.
	op := h.write(0, 7, "during")
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("write during catch-up: %+v", c)
	}
	if e := h.entry(3, 7); string(e.Value) != "during" {
		t.Fatalf("learner missed a live write: %+v", e)
	}

	// Drive chunk transfer to completion.
	for i := 0; i < 20 && !l.CaughtUp(); i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if !l.CaughtUp() {
		t.Fatal("learner never caught up")
	}
	for k := proto.Key(0); k < 100; k++ {
		want := "seed"
		if k == 7 {
			want = "during"
		}
		if e := h.entry(3, k); string(e.Value) != want {
			t.Fatalf("learner key %d: %q want %q", k, e.Value, want)
		}
	}

	// Promote: new view with node 3 as a full member.
	nv := proto.View{Epoch: h.view.Epoch + 1, Members: []proto.NodeID{0, 1, 2, 3}}
	h.installView(nv)
	if !l.Operational() {
		t.Fatal("promoted replica should serve requests")
	}
	rop := h.read(3, 42)
	if c := h.completion(3, rop); c.Status != proto.OK || string(c.Value) != "seed" {
		t.Fatalf("read at promoted node: %+v", c)
	}
}

func TestLearnerChunkRetryAfterLoss(t *testing.T) {
	h := newHarness(t, 3, nil)
	for k := proto.Key(0); k < 10; k++ {
		h.write(0, k, "v")
	}
	h.run()
	l := h.addLearner(3)
	h.advance(1 * time.Millisecond) // triggers first ChunkReq
	// Lose every chunk response as it is produced.
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(ChunkResp); return is }) > 0 {
			continue
		}
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	if l.CaughtUp() {
		t.Fatal("caught up without data?")
	}
	// Retry fires after mlt.
	for i := 0; i < 10 && !l.CaughtUp(); i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if !l.CaughtUp() {
		t.Fatal("chunk retry never recovered")
	}
}

// TestLearnerCatchUpCoversEveryKey: a store spanning several chunks, read
// from different members in turn, arrives whole at the learner — no key is
// skipped because two members iterate their stores in different orders. A
// key the learner lacked would read as empty after promotion.
func TestLearnerCatchUpCoversEveryKey(t *testing.T) {
	const keys = 3000
	h := newHarness(t, 3, nil)
	rng := rand.New(rand.NewSource(1))
	want := map[proto.Key]proto.TS{math.MaxUint64: {Version: 2}, 0: {Version: 2}}
	for len(want) < keys {
		want[proto.Key(rng.Uint64())] = proto.TS{Version: 2 + 2*uint32(rng.Intn(3)), CID: uint16(rng.Intn(3))}
	}
	// Every member holds the same committed records, inserted in its own
	// order.
	for id := proto.NodeID(0); id < 3; id++ {
		for k, ts := range want {
			h.nodes[id].Store().Update(k, kvs.Entry{Value: proto.Value("v"), TS: ts, State: kvs.Valid})
		}
	}

	l := h.addLearner(3)
	for i := 0; i < 100 && !l.CaughtUp(); i++ {
		h.advance(time.Millisecond)
		h.run()
	}
	if !l.CaughtUp() {
		t.Fatal("learner never caught up")
	}
	missing := 0
	for k, ts := range want {
		if e, ok := l.Store().Get(k); !ok || e.TS != ts || e.State != kvs.Valid || string(e.Value) != "v" {
			missing++
		}
	}
	if missing > 0 || l.Store().Len() != keys {
		t.Fatalf("caught-up learner lacks %d of %d keys (holds %d)", missing, keys, l.Store().Len())
	}
}

func TestChunkTransferDoesNotRegressNewerLocalData(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 5, "old")
	h.run()
	l := h.addLearner(3)
	// The learner hears a fresh write first (via INV).
	h.write(1, 5, "fresh")
	h.run()
	// Then chunk transfer delivers the stale snapshot record; it must not
	// overwrite the fresher copy.
	for i := 0; i < 10 && !l.CaughtUp(); i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if e := h.entry(3, 5); string(e.Value) != "fresh" {
		t.Fatalf("chunk transfer regressed key: %+v", e)
	}
}

// TestTimersFireOnFirstTickAtDeadline: Tick skips its walk of the metas while
// no armed deadline can be due, and this pins the skip to no behaviour. With a
// Tick every millisecond, each retransmission and the replay fire on the first
// Tick at or after their deadline, no earlier and no later — key 2's deadline
// among them, armed before the walk key 1's timer sets off.
func TestTimersFireOnFirstTickAtDeadline(t *testing.T) {
	h := newHarness(t, 3, nil) // MLT 10ms
	toNode2 := func(e envelope) bool { _, is := e.msg.(INV); return is && e.to == 2 }
	// Keys 1 (armed at 0ms) and 2 (at 3ms): node 2 never sees their INVs, so
	// node 0 retransmits each every MLT.
	h.write(0, 1, "a")
	h.dropWhere(toNode2)
	h.run()
	h.now = 3 * time.Millisecond
	h.write(0, 2, "b")
	h.dropWhere(toNode2)
	h.run()
	// Key 3 (at 5ms): its VALs are lost, and a read stalls at node 1.
	h.now = 5 * time.Millisecond
	h.write(0, 3, "c")
	for {
		if h.dropWhere(func(e envelope) bool { _, is := e.msg.(VAL); return is }) > 0 {
			continue
		}
		if !h.step() {
			break
		}
	}
	h.read(1, 3)

	retransmitsAt := func(now time.Duration) uint64 {
		n := uint64(0)
		for _, armed := range []time.Duration{0, 3 * time.Millisecond} {
			if now >= armed+10*time.Millisecond {
				n += uint64((now - armed) / (10 * time.Millisecond)) // every MLT since
			}
		}
		return n
	}
	for h.now < 35*time.Millisecond {
		h.advance(time.Millisecond)
		h.msgs = nil // nothing the timers send is delivered
		if got, want := h.nodes[0].Metrics().Retransmits, retransmitsAt(h.now); got != want {
			t.Fatalf("at %v: node 0 retransmitted %d times, want %d", h.now, got, want)
		}
		want := uint64(0)
		if h.now >= 15*time.Millisecond {
			want = 1
		}
		if got := h.nodes[1].Metrics().Replays; got != want {
			t.Fatalf("at %v: node 1 replayed %d times, want %d", h.now, got, want)
		}
	}
	// The replay's own INVs were lost too: it retransmits at 25ms and 35ms.
	if got := h.nodes[1].Metrics().Retransmits; got != 2 {
		t.Fatalf("node 1 retransmitted its replay %d times by %v, want 2", got, h.now)
	}
}
