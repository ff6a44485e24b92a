package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// shardMsgs unpacks one wire send into the shard messages it carries.
func shardMsgs(msg any) []proto.ShardMsg {
	switch f := msg.(type) {
	case proto.ShardMsg:
		return []proto.ShardMsg{f}
	case proto.ShardBatch:
		return f.Msgs
	}
	return nil
}

// invsSent counts the INVs for key, under epoch, that have reached the
// recording transport so far, alone or inside a batch.
func invsSent(tr *recTransport, key proto.Key, epoch uint32) int {
	n := 0
	for _, s := range tr.sends() {
		for _, sm := range shardMsgs(s.msg) {
			if inv, ok := sm.Msg.(core.INV); ok && inv.Key == key && inv.Epoch == epoch {
				n++
			}
		}
	}
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// quietNode is a 2-shard node whose peer never answers, over a transport that
// records what it is sent.
func quietNode(t *testing.T, mlt, tickEvery time.Duration) (*ShardedNode, *recTransport) {
	t.Helper()
	tr := &recTransport{}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2, MLT: mlt, TickEvery: tickEvery,
	}, tr)
	t.Cleanup(sn.Close)
	return sn, tr
}

// submitWrite starts a write of key that the silent peer will never let
// commit.
func submitWrite(t *testing.T, sn *ShardedNode, key proto.Key) {
	t.Helper()
	err := sn.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}, func(proto.Completion) {})
	if err != nil {
		t.Fatal(err)
	}
}

// sendsOf returns, as their shard messages, the wire sends that carry a
// message match accepts, alone or inside a batch.
func sendsOf(tr *recTransport, match func(any) bool) [][]proto.ShardMsg {
	var out [][]proto.ShardMsg
	for _, s := range tr.sends() {
		sms := shardMsgs(s.msg)
		for _, sm := range sms {
			if match(sm.Msg) {
				out = append(out, sms)
				break
			}
		}
	}
	return out
}

// isVAL matches the VAL of key under epoch.
func isVAL(key proto.Key, epoch uint32) func(any) bool {
	return func(m any) bool { v, ok := m.(core.VAL); return ok && v.Key == key && v.Epoch == epoch }
}

// commitWrite writes key on a quiet node and commits it with the silent
// peer's ACK, handed to the node as if it had arrived; it returns once the
// write has completed.
func commitWrite(t *testing.T, sn *ShardedNode, tr *recTransport, key proto.Key) {
	t.Helper()
	done := make(chan proto.Completion, 1)
	err := sn.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}, func(c proto.Completion) { done <- c })
	if err != nil {
		t.Fatal(err)
	}
	var inv core.INV
	isINV := func(m any) bool {
		i, ok := m.(core.INV)
		if ok && i.Key == key {
			inv = i
		}
		return ok && i.Key == key
	}
	waitFor(t, "the write's INV", func() bool { return len(sendsOf(tr, isINV)) > 0 })
	sn.dispatch(1, proto.ShardMsg{Shard: proto.ShardOf(key, sn.w), Msg: core.ACK{Epoch: inv.Epoch, Key: key, TS: inv.TS}})
	if c := <-done; c.Status != proto.OK {
		t.Fatalf("write of %d: %v", key, c.Status)
	}
}

// TestNothingStaysStaged: the event loop sends what its turns staged
// before it blocks, whichever select arm woke it, except VALs waiting for
// company, and those leave at the next tick. Each step below is the only
// input the node gets, so a message still staged after it would stay there —
// an arm that forgot the hand-off fails its step's wait.
func TestNothingStaysStaged(t *testing.T) {
	const key = proto.Key(7)
	t.Run("op and install", func(t *testing.T) {
		// No ticks at all: nothing but the arm under test can flush a stage.
		sn, tr := quietNode(t, time.Hour, time.Hour)
		submitWrite(t, sn, key)
		waitFor(t, "the write's INV", func() bool { return invsSent(tr, key, 1) == 1 })
		sn.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
		waitFor(t, "the install's replayed INV", func() bool { return invsSent(tr, key, 2) == 1 })
		// CoalesceStats counts at the hand-off exactly what left the stages.
		waitFor(t, "CoalesceStats to count the sends", func() bool {
			var want [4]uint64
			for _, s := range tr.sends() {
				switch f := s.msg.(type) {
				case proto.ShardBatch:
					want[0]++
					want[1] += uint64(len(f.Msgs))
				case proto.ShardMsg:
					switch f.Msg.(type) {
					case core.INV, core.ACK, core.VAL:
						want[2]++
					}
				}
			}
			b, c, singles, dropped := sn.CoalesceStats()
			return [4]uint64{b, c, singles, dropped} == want && want[2] >= 2
		})
	})

	t.Run("tick", func(t *testing.T) {
		sn, tr := quietNode(t, 5*time.Millisecond, time.Millisecond)
		submitWrite(t, sn, key)
		// The peer never ACKs: every INV after the first is a retransmission,
		// sent by a Tick turn.
		waitFor(t, "an MLT retransmission", func() bool { return invsSent(tr, key, 1) >= 2 })
	})

	t.Run("lone VAL", func(t *testing.T) {
		// The committed write's VAL is the only message left: the tick sends
		// it, alone.
		sn, tr := quietNode(t, time.Hour, 5*time.Millisecond)
		commitWrite(t, sn, tr, key)
		committed := time.Now()
		waitFor(t, "the VAL at a tick", func() bool { return len(sendsOf(tr, isVAL(key, 1))) == 1 })
		t.Logf("VAL on the wire %v after the commit, at a 5ms tick", time.Since(committed))
		if sms := sendsOf(tr, isVAL(key, 1))[0]; len(sms) != 1 {
			t.Fatalf("the VAL left in a batch of %d with nothing else staged", len(sms))
		}

		// With no tick, it rides the shard's next INV to the peer, ahead of
		// it in one batch; and the next one leaves before an install.
		sn, tr = quietNode(t, time.Hour, time.Hour)
		other := key + 1
		for proto.ShardOf(other, sn.w) != proto.ShardOf(key, sn.w) {
			other++
		}
		commitWrite(t, sn, tr, key)
		commitWrite(t, sn, tr, other)
		sms := sendsOf(tr, isVAL(key, 1))
		if len(sms) != 1 || len(sms[0]) != 2 || !isVAL(key, 1)(sms[0][0].Msg) {
			t.Fatalf("the VAL left as %v, want [VAL, INV] in one batch", sms)
		}
		if inv, ok := sms[0][1].Msg.(core.INV); !ok || inv.Key != other {
			t.Fatalf("the VAL's company is %#v, want the INV of %d", sms[0][1].Msg, other)
		}
		if n := len(sendsOf(tr, isVAL(other, 1))); n != 0 {
			t.Fatalf("a lone VAL left at a burst's end (%d sends)", n)
		}
		sn.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
		if n := len(sendsOf(tr, isVAL(other, 1))); n != 1 {
			t.Fatalf("the install returned with the epoch-1 VAL sent %d times, want 1", n)
		}
	})
}

// TestBurstIsBounded: a producer that never lets the inbox run dry must not
// keep the loop inside one burst. Here every turn puts back the message it
// took, so the inbox is full whenever the loop looks and a drain that ran
// "until empty" would never end. The drain takes what was queued at wake-up and
// no more, so timers still fire — the unACKed write keeps retransmitting — and
// Close still returns.
func TestBurstIsBounded(t *testing.T) {
	const key = proto.Key(7)
	sn, tr := quietNode(t, 5*time.Millisecond, time.Millisecond)
	s := sn.shardFor(key)
	submitWrite(t, sn, key)

	var quit atomic.Bool
	defer quit.Store(true)
	var refill loopFn
	refill = func() {
		if quit.Load() {
			return
		}
		select {
		case s.msgs <- env{from: s.id, msg: refill}:
		default:
		}
	}
	for i := 0; i < cap(s.msgs); i++ {
		s.enqueueFn(refill)
	}

	sent := invsSent(tr, key, 1)
	waitFor(t, "MLT retransmissions under a full inbox", func() bool { return invsSent(tr, key, 1) >= sent+2 })
	if len(s.msgs) < cap(s.msgs)-burstWindow {
		t.Fatalf("inbox holds %d of %d: the test lost its premise", len(s.msgs), cap(s.msgs))
	}

	closed := make(chan struct{})
	go func() { sn.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with the inbox kept full")
	}
}

// TestBurstWindowsKeepArrivalOrder: a burst longer than two windows runs its
// messages in arrival order and its ops in arrival order, across every window
// boundary. The loop is held inside one turn while the burst queues, so the
// whole burst is waiting at the next wake-up.
func TestBurstWindowsKeepArrivalOrder(t *testing.T) {
	sn, _ := quietNode(t, time.Hour, time.Hour)
	s := sn.shardFor(7)
	const burst = 2*burstWindow + 5

	release := make(chan struct{})
	held := make(chan struct{})
	s.enqueueFn(func() { close(held); <-release })
	<-held

	var ran []int // msgs as i, ops as burst+i; appended on the loop only
	var wg sync.WaitGroup
	wg.Add(2 * burst)
	for i := 0; i < burst; i++ {
		s.enqueueFn(func() { ran = append(ran, i); wg.Done() })
		op := proto.ClientOp{Kind: proto.OpRead, Key: proto.Key(1000 + i)}
		if err := s.submit(context.Background(), op, func(proto.Completion) { ran = append(ran, burst+i); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.msgs) != burst || len(s.ops) != burst {
		t.Fatalf("queued %d messages and %d ops, want %d of each", len(s.msgs), len(s.ops), burst)
	}
	close(release)
	wg.Wait()

	nextMsg, nextOp := 0, burst
	for _, r := range ran {
		switch {
		case r < burst && r == nextMsg:
			nextMsg++
		case r >= burst && r == nextOp:
			nextOp++
		default:
			t.Fatalf("turns ran as %v: %d out of arrival order", ran, r)
		}
	}
}
