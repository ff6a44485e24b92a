package shardhost

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// noBase is an engine's clock and completion sink where neither matters.
type noBase struct{}

func (noBase) Now() time.Duration        { return 0 }
func (noBase) Complete(proto.Completion) {}

// recWire records what an egress puts on the wire, in order. Recording is
// retaining: a batch's slice is recycled once the wire returns, so it keeps a
// copy.
type recWire struct{ sent []sent }

func (r *recWire) send(to proto.NodeID, msg any) {
	if sb, ok := msg.(proto.ShardBatch); ok {
		msg = proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)}
	}
	r.sent = append(r.sent, sent{to, msg})
}

// stagingEgress is shard 3's egress over a recording wire.
func stagingEgress() (*Egress, *recWire) {
	w := &recWire{}
	return NewEgress(3, noBase{}, w.send), w
}

// entries unpacks one wire send into the shard messages it carries.
func entries(t *testing.T, m any) []proto.ShardMsg {
	t.Helper()
	switch f := m.(type) {
	case proto.ShardBatch:
		return f.Msgs
	case proto.ShardMsg:
		return []proto.ShardMsg{f}
	}
	t.Fatalf("unexpected send %T", m)
	return nil
}

// TestStagedFlushSendsOncePerStage: a window leaves as one wire send per
// peer it addressed — a lone message as a plain ShardMsg, company as one
// ShardBatch in send order, INVs, ACKs and VALs mixed as they came — peer by
// peer, whatever order the engine addressed them in; and Flush counts what
// left. What is not staged goes to the wire at once.
func TestStagedFlushSendsOncePerStage(t *testing.T) {
	e, w := stagingEgress()
	ack := func(key proto.Key) core.ACK { return core.ACK{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	val := func(key proto.Key) core.VAL { return core.VAL{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	inv := func(key proto.Key) core.INV { return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	tag := func(msgs ...any) any {
		if len(msgs) == 1 {
			return proto.ShardMsg{Shard: 3, Msg: msgs[0]}
		}
		var sb proto.ShardBatch
		for _, m := range msgs {
			sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: 3, Msg: m})
		}
		return sb
	}
	flush := func(want [3]uint64) {
		t.Helper()
		if b, c, s := e.Flush(); [3]uint64{b, c, s} != want {
			t.Fatalf("Flush = (%d,%d,%d), want %v", b, c, s, want)
		}
	}

	e.Send(1, ack(10))
	flush([3]uint64{0, 0, 1})
	e.Send(1, ack(11))
	e.Send(1, ack(12))
	e.Send(2, core.MCheck{Epoch: 1}) // not staged: on the wire before the window ends
	e.Send(1, ack(13))
	flush([3]uint64{1, 3, 0})
	flush([3]uint64{}) // nothing staged: nothing sent
	want := []sent{{1, tag(ack(10))}, {2, tag(core.MCheck{Epoch: 1})}, {1, tag(ack(11), ack(12), ack(13))}}
	if !reflect.DeepEqual(w.sent, want) {
		t.Fatalf("sends:\n got %#v\nwant %#v", w.sent, want)
	}

	// Addressed far peer first; sent by peer, each in the order addressed.
	e.Send(2, inv(20))
	e.Send(2, val(21))
	e.Send(1, inv(22))
	e.Send(1, val(23))
	e.Send(2, ack(24))
	e.Send(1, inv(25))
	flush([3]uint64{2, 6, 0})
	want = append(want,
		sent{1, tag(inv(22), val(23), inv(25))},
		sent{2, tag(inv(20), val(21), ack(24))})
	if !reflect.DeepEqual(w.sent, want) {
		t.Fatalf("sends after the mixed window:\n got %#v\nwant %#v", w.sent, want)
	}
}

// TestCoalescerKeepsSendOrder drives ACKs, VALs and INVs for one peer
// through four shards' egresses: each window leaves as one batch, its
// entries the shard's messages in the order the engine sent them.
func TestCoalescerKeepsSendOrder(t *testing.T) {
	w := &recWire{}
	var want []sent
	for i := uint16(0); i < 4; i++ {
		e := NewEgress(i, noBase{}, w.send)
		var sb proto.ShardBatch
		for j := 0; j < 3; j++ {
			k := proto.Key(10*int(i) + j)
			for _, m := range []any{
				core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 1}},
				core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 1}},
				core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}},
			} {
				e.Send(1, m)
				sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: i, Msg: m})
			}
		}
		e.Flush()
		want = append(want, sent{1, sb})
	}
	if !reflect.DeepEqual(w.sent, want) {
		t.Fatalf("sends:\n got %#v\nwant %#v", w.sent, want)
	}
}

// TestCoalescerBudgetsRequestBatches stages value-bearing INVs and checks the
// batch budgets. Bytes: a stage leaves as several batches none of which
// exceeds maxBatchBytes, while an INV too big for the budget on its own still
// ships, alone. Count: nothing caps a batch below the byte budget — 1000
// small INVs leave as one batch — and every message counts toward it, so
// 3000 VALs leave as two, in order.
func TestCoalescerBudgetsRequestBatches(t *testing.T) {
	inv := func(key proto.Key, valLen int) core.INV {
		return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 1}, Value: make(proto.Value, valLen)}
	}
	sizes := func(w *recWire) (msgs, bytes []int) {
		for _, s := range w.sent {
			n := 0
			for _, sm := range entries(t, s.msg) {
				n += shardMsgSize(sm)
			}
			msgs, bytes = append(msgs, len(entries(t, s.msg))), append(bytes, n)
		}
		return msgs, bytes
	}

	t.Run("bytes", func(t *testing.T) {
		e, w := stagingEgress()
		// 5 × (32 + 20 KiB) is over the 64 KiB budget: 3 fit, the next would
		// overflow. Then two INVs each over the budget alone: the i>0 guard
		// must let every one ship instead of cutting to an empty batch.
		const val, jumbo = 20 << 10, 80 << 10
		for k := proto.Key(1); k <= 5; k++ {
			e.Send(1, inv(k, val))
		}
		e.Send(1, inv(6, jumbo))
		e.Send(1, inv(7, jumbo))
		e.Flush()
		msgs, bytes := sizes(w)
		if want := []int{3, 2, 1, 1}; !reflect.DeepEqual(msgs, want) {
			t.Fatalf("stage left as batches of %v messages, want %v", msgs, want)
		}
		for i, n := range bytes {
			if msgs[i] > 1 && n > maxBatchBytes {
				t.Fatalf("batch %d: %d bytes exceeds the %d budget", i, n, maxBatchBytes)
			}
		}
		for _, i := range []int{2, 3} {
			if _, ok := w.sent[i].msg.(proto.ShardMsg); !ok || bytes[i] <= maxBatchBytes {
				t.Fatalf("send %d: %T of %d bytes, want a lone ShardMsg over the budget", i, w.sent[i].msg, bytes[i])
			}
		}
	})

	t.Run("count", func(t *testing.T) {
		for _, c := range []struct {
			name string
			n    int
			msg  func(proto.Key) any
			want []int
		}{
			{"INVs", 1000, func(k proto.Key) any { return inv(k, 8) }, []int{1000}},
			{"VALs", 3000, func(k proto.Key) any { return core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 1}} }, []int{2048, 952}},
		} {
			e, w := stagingEgress()
			for k := proto.Key(0); k < proto.Key(c.n); k++ {
				e.Send(1, c.msg(k))
			}
			e.Flush()
			if msgs, _ := sizes(w); !reflect.DeepEqual(msgs, c.want) {
				t.Fatalf("%d %s left as batches of %v, want %v", c.n, c.name, msgs, c.want)
			}
			next := proto.Key(0)
			for _, s := range w.sent {
				for _, sm := range entries(t, s.msg) {
					if k, _ := core.MsgKey(sm.Msg); k != next {
						t.Fatalf("%s %d sent where %d was due: the split reordered the stage", c.name, k, next)
					}
					next++
				}
			}
		}
	})
}

// TestCoalescerBurstAllocationBudget: staging and flushing a window
// allocates nothing in the egress — the stages are warm arrays — so what is
// left is one box per non-empty stage, one stage per peer: the ShardBatch (or
// lone ShardMsg) envelope boxed for the wire's any.
func TestCoalescerBurstAllocationBudget(t *testing.T) {
	var seen uint64
	e := NewEgress(1, noBase{}, func(to proto.NodeID, msg any) {
		n := 1
		if sb, ok := msg.(proto.ShardBatch); ok {
			n = len(sb.Msgs)
		}
		core.ReleaseMsgOwners(msg) // a wire spends what it does not deliver
		seen += uint64(n)
	})
	var acks, vals [16]any // boxed once, as the engine's Send argument already is
	for i := range acks {
		acks[i] = core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}
		vals[i] = core.VAL{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}
	}
	burst := func(stages ...[16]any) func() { // stage i goes to peer i+1
		return func() {
			for i, msgs := range stages {
				for _, m := range msgs {
					e.Send(proto.NodeID(i+1), m)
				}
			}
			e.Flush()
		}
	}
	burst(acks, vals)() // grows the stages
	if n := testing.AllocsPerRun(200, burst(acks)); n > 1 {
		t.Fatalf("a 16-ACK window allocates %.0f times, want <= 1 (the boxed envelope)", n)
	}
	if n := testing.AllocsPerRun(200, burst(acks, vals)); n > 2 {
		t.Fatalf("a window of two 16-message stages allocates %.0f times, want <= 2 (one boxed envelope each)", n)
	}
	if want := uint64(32 + 201*16 + 201*32); seen != want {
		t.Fatalf("wire saw %d messages, want %d", seen, want)
	}
	for _, st := range e.stages {
		for i, sm := range st.msgs[:cap(st.msgs)] {
			if sm.Msg != nil {
				t.Fatalf("recycled stage entry %d still references a sent message", i)
			}
		}
	}
}
