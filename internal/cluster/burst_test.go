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

// invsSent counts the INVs for key, under epoch, that have reached the
// recording transport so far, alone or inside a batch.
func invsSent(tr *recTransport, key proto.Key, epoch uint32) int {
	n := 0
	count := func(sm proto.ShardMsg) {
		if inv, ok := sm.Msg.(core.INV); ok && inv.Key == key && inv.Epoch == epoch {
			n++
		}
	}
	for _, s := range tr.sends() {
		switch f := s.msg.(type) {
		case proto.ShardMsg:
			count(f)
		case proto.ShardBatch:
			for _, sm := range f.Msgs {
				count(sm)
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

// TestNothingStaysStaged: the event loop sends what its turns staged
// before it blocks, whichever select arm woke it. Each step below is the only
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
