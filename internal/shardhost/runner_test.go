package shardhost

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// testRunner is node 0's shard 3 runner in a {0, 1} view over a recording
// wire, its engine never ticked.
func testRunner() (*Runner, *recWire) {
	w := &recWire{}
	r := NewRunner(3, noBase{}, w.send, core.Config{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}}, MLT: time.Hour,
	})
	return r, w
}

// peerINV is an INV from the peer that an engine holding nothing for key
// applies and ACKs.
func peerINV(key proto.Key) core.INV {
	return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 2, CID: 1}}
}

// write is a client write of key.
func write(key proto.Key) proto.ClientOp {
	return proto.ClientOp{ID: uint64(key), Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}
}

// turnOrder reads the order the window's turns ran in off the wire: a peer
// INV's turn stages an ACK of its key, and a write's turn an INV of its key,
// all to the one peer, in send order. Messages are reported as their keys,
// ops as their keys negated.
func turnOrder(t *testing.T, w *recWire) []int {
	t.Helper()
	var order []int
	for _, s := range w.sent {
		for _, sm := range entries(t, s.msg) {
			switch m := sm.Msg.(type) {
			case core.ACK:
				order = append(order, int(m.Key))
			case core.INV:
				order = append(order, -int(m.Key))
			}
		}
	}
	return order
}

// TestRunnerTurnOrder: within a window messages run before ops, each in
// arrival order, whatever order they arrived in, and a window holds at most
// BurstWindow entries: the one that would overflow it runs it first.
func TestRunnerTurnOrder(t *testing.T) {
	r, w := testRunner()
	r.Submit(write(1), nil)
	r.Deliver(1, peerINV(2))
	r.Submit(write(3), nil)
	r.Deliver(1, peerINV(4))
	r.Run()
	r.HandOff(false)
	if got, want := turnOrder(t, w), []int{2, 4, -1, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("turns ran as %v, want messages then ops, each in arrival order: %v", got, want)
	}

	r, _ = testRunner()
	for k := proto.Key(1); k <= BurstWindow; k++ {
		r.Deliver(1, peerINV(k))
	}
	if n := r.Engine().Metrics().ACKsSent; n != 0 {
		t.Fatalf("%d turns ran with the window not yet overflowing", n)
	}
	r.Submit(write(100), nil)
	if m := r.Engine().Metrics(); m.ACKsSent != BurstWindow || m.Writes != 0 {
		t.Fatalf("after the %dth entry: %d messages and %d ops ran, want the full window of %d messages alone",
			BurstWindow+1, m.ACKsSent, m.Writes, BurstWindow)
	}
	r.Run()
	if m := r.Engine().Metrics(); m.Writes != 1 {
		t.Fatalf("Run left %d ops run, want 1", m.Writes)
	}
}

// TestRunnerBurstTakesWhatWasQueued: a burst runs what its queues held when
// it started, in windows — all the messages, then all the ops, across window
// boundaries — and not what its own turns queue meanwhile: each ChunkReq the
// burst answers puts another on the queue, as a peer that asks again at once
// would, and the burst still ends once it has answered the ones it started
// with. (The peer gives up after a thousand answers, so a burst that does
// not end fails instead of hanging.)
func TestRunnerBurstTakesWhatWasQueued(t *testing.T) {
	r, w := testRunner()
	const n = 2*BurstWindow + 5
	const asks = 3
	msgs := make(chan Arrival, 2*n)
	ops := make(chan Op, n)
	for range asks {
		msgs <- Arrival{From: 1, Msg: core.ChunkReq{Epoch: 1, MaxKeys: 1}}
	}
	for k := proto.Key(1); k <= n; k++ {
		msgs <- Arrival{From: 1, Msg: peerINV(k)}
		ops <- Op{Op: write(1000 + k)}
	}
	wire := w.send
	answered := 0
	r.out.wire = func(to proto.NodeID, msg any) {
		if sm, ok := msg.(proto.ShardMsg); ok {
			if _, ok := sm.Msg.(core.ChunkResp); ok {
				if answered++; answered < 1000 {
					msgs <- Arrival{From: to, Msg: core.ChunkReq{Epoch: 1, MaxKeys: 1}}
				}
			}
		}
		wire(to, msg)
	}
	r.Burst(msgs, ops)
	r.HandOff(false)

	if answered != asks || len(msgs) != asks || len(ops) != 0 {
		t.Fatalf("%d requests answered, %d messages and %d ops left queued; want %d, %d and 0", answered, len(msgs), len(ops), asks, asks)
	}
	var want []int
	for k := 1; k <= n; k++ {
		want = append(want, k)
	}
	for k := 1; k <= n; k++ {
		want = append(want, -(1000 + k))
	}
	if got := turnOrder(t, w); !reflect.DeepEqual(got, want) {
		t.Fatalf("turns ran as %v, want %v", got, want)
	}
}

// TestRunnerInstallFlushesHeldVALsFirst: an install queued among the
// arrivals runs in its place, and the VALs the egress holds leave before the
// transition, under the epoch they were sent in; Done is closed once it has
// run.
func TestRunnerInstallFlushesHeldVALsFirst(t *testing.T) {
	r, w := testRunner()
	held := core.VAL{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}}
	r.out.Send(1, held)
	r.HandOff(false)
	if len(w.sent) != 0 {
		t.Fatalf("a lone VAL left at a hand-off: %v", w.sent)
	}
	var epochAtSend []uint32
	wire := w.send
	r.out.wire = func(to proto.NodeID, msg any) {
		epochAtSend = append(epochAtSend, r.Engine().View().Epoch)
		wire(to, msg)
	}
	done := make(chan struct{})
	r.Deliver(1, peerINV(2))
	r.Deliver(0, InstallMsg{View: proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}, Done: done})
	r.Run()
	select {
	case <-done:
	default:
		t.Fatal("Done not closed once the install ran")
	}
	if e := r.Engine().View().Epoch; e != 2 {
		t.Fatalf("engine at epoch %d after the install, want 2", e)
	}
	if len(w.sent) != 1 || !reflect.DeepEqual(epochAtSend, []uint32{1}) {
		t.Fatalf("sent %v at engine epochs %v, want one frame before the transition", w.sent, epochAtSend)
	}
	sms := entries(t, w.sent[0].msg)
	if len(sms) != 2 || sms[0].Msg != held {
		t.Fatalf("the install's flush sent %v, want the held VAL then the earlier INV's ACK", sms)
	}
	if a, ok := sms[1].Msg.(core.ACK); !ok || a.Key != 2 || a.Epoch != 1 {
		t.Fatalf("the install's flush sent %#v second, want the epoch-1 ACK of key 2", sms[1].Msg)
	}
}

// TestRunnerFlushCounters: Flushed adds up what every hand-off sent —
// batches, the messages inside them and the messages that left alone — the
// install's included, and a hand-off that sends nothing counts nothing.
func TestRunnerFlushCounters(t *testing.T) {
	r, _ := testRunner()
	ack := func(k proto.Key) core.ACK { return core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 1}} }
	for k := proto.Key(1); k <= 3; k++ {
		r.out.Send(1, ack(k))
	}
	r.out.Send(2, ack(4))
	r.HandOff(false)
	if b, c, s := r.Flushed(); b != 1 || c != 3 || s != 1 {
		t.Fatalf("Flushed = %d, %d, %d after one batch of 3 and a single; want 1, 3, 1", b, c, s)
	}
	r.out.Send(1, core.VAL{Epoch: 1, Key: 5, TS: proto.TS{Version: 1}})
	r.HandOff(false)
	if b, c, s := r.Flushed(); b != 1 || c != 3 || s != 1 {
		t.Fatalf("a hand-off that held a lone VAL counted: %d, %d, %d", b, c, s)
	}
	r.Deliver(0, InstallMsg{View: proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}})
	r.Run()
	if b, c, s := r.Flushed(); b != 1 || c != 3 || s != 2 {
		t.Fatalf("Flushed = %d, %d, %d after the install sent the VAL; want 1, 3, 2", b, c, s)
	}
}

// TestRunnerCompletions: an op's completion goes to its callback once, an op
// submitted without one goes to the runtime's Base, and Discard fails the
// ops the engine holds and the queued ones and drops the queued messages.
func TestRunnerCompletions(t *testing.T) {
	base := &completions{}
	r := NewRunner(0, base, func(proto.NodeID, any) {}, core.Config{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}}, MLT: time.Hour,
	})
	var got []proto.Completion
	r.Submit(write(1), func(c proto.Completion) { got = append(got, c) })
	r.Submit(write(2), nil)
	r.Run()
	r.Deliver(1, core.ACK{Epoch: 1, Key: 1, TS: tsOf(r, 1)})
	r.Run()
	if len(got) != 1 || got[0].OpID != 1 || got[0].Status != proto.OK || len(base.got) != 0 {
		t.Fatalf("callback got %v, base got %v; want write 1 OK to the callback alone", got, base.got)
	}
	r.Deliver(1, core.ACK{Epoch: 1, Key: 2, TS: tsOf(r, 2)})
	r.Run()
	if len(base.got) != 1 || base.got[0].OpID != 2 {
		t.Fatalf("base got %v, want write 2's completion", base.got)
	}

	got = nil
	r.Submit(write(3), func(c proto.Completion) { got = append(got, c) })
	r.Run()
	msgs, ops := make(chan Arrival, 1), make(chan Op, 1)
	msgs <- Arrival{From: 1, Msg: peerINV(9)}
	ops <- Op{Op: write(4), Done: func(c proto.Completion) { got = append(got, c) }}
	r.Discard(msgs, ops)
	if len(got) != 2 || got[0].Status != proto.NotOperational || got[1].Status != proto.NotOperational || len(msgs)+len(ops) != 0 {
		t.Fatalf("Discard completed %v and left %d queued, want writes 3 and 4 NotOperational and nothing queued", got, len(msgs)+len(ops))
	}
}

// tsOf is the timestamp the engine holds for key.
func tsOf(r *Runner, key proto.Key) proto.TS {
	e, _ := r.Engine().Store().Get(key)
	return e.TS
}

type completions struct{ got []proto.Completion }

func (c *completions) Now() time.Duration          { return 0 }
func (c *completions) Complete(x proto.Completion) { c.got = append(c.got, x) }
