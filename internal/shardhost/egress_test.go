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
// non-empty (peer, class) stage — a lone message as a plain ShardMsg, company
// as one ShardBatch in send order — peer by peer with responses first,
// whatever order the engine addressed them in; and Flush counts what left.
// What is not staged goes to the wire at once.
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

	// Addressed INV-first and far peer first; sent by peer, ACK VAL INV.
	e.Send(2, inv(20))
	e.Send(2, val(21))
	e.Send(1, inv(22))
	e.Send(1, val(23))
	e.Send(2, ack(24))
	e.Send(1, inv(25))
	flush([3]uint64{1, 2, 4})
	want = append(want,
		sent{1, tag(val(23))}, sent{1, tag(inv(22), inv(25))},
		sent{2, tag(ack(24))}, sent{2, tag(val(21))}, sent{2, tag(inv(20))})
	if !reflect.DeepEqual(w.sent, want) {
		t.Fatalf("sends after the mixed window:\n got %#v\nwant %#v", w.sent, want)
	}
}

// TestCoalescerSeparatesCreditClasses drives ACKs, VALs and INVs for one peer
// through four shards' egresses and checks no send ever mixes the classes: a
// batch is priced as a whole, and an all-ACK batch must stay free of charge
// so that ACK egress (which repays the peer) never waits for credits. The
// response class must be exactly what core.IsResponseMsg, the transport's
// pricing predicate, calls a response.
func TestCoalescerSeparatesCreditClasses(t *testing.T) {
	w := &recWire{}
	for i := uint16(0); i < 4; i++ {
		e := NewEgress(i, noBase{}, w.send)
		for j := 0; j < 3; j++ {
			k := proto.Key(10*int(i) + j)
			e.Send(1, core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			e.Send(1, core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			e.Send(1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
		}
		e.Flush()
	}
	total := 0
	for _, s := range w.sent {
		classes := map[msgClass]int{}
		for _, sm := range entries(t, s.msg) {
			c, staged := classOf(sm.Msg)
			if !staged || core.IsResponseMsg(sm.Msg) != (c == classResponse) {
				t.Fatalf("%T staged=%v in class %d disagrees with core.IsResponseMsg", sm.Msg, staged, c)
			}
			classes[c]++
			total++
		}
		if len(classes) != 1 {
			t.Fatalf("one send mixes credit classes: %v", classes)
		}
	}
	if total != 4*3*3 {
		t.Fatalf("%d messages sent, want %d", total, 4*3*3)
	}
}

// TestCoalescerBudgetsRequestBatches stages value-bearing INVs and checks the
// request class's two budgets. Bytes: a stage leaves as several batches none
// of which exceeds maxBatchBytes, while an INV too big for the budget on its
// own still ships, alone. Count: a batch's credit price is its count, so a
// 1000-INV stage must not leave as one batch priced at a level the window
// (1024, less what one-way traffic holds) may never reach.
func TestCoalescerBudgetsRequestBatches(t *testing.T) {
	inv := func(key proto.Key, valLen int) core.INV {
		return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 1}, Value: make(proto.Value, valLen)}
	}
	if c, _ := classOf(inv(0, 8)); c != classRequest {
		t.Fatal("INVs must be staged in the request class")
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
		e, w := stagingEgress()
		for k := proto.Key(0); k < 1000; k++ {
			e.Send(1, inv(k, 8))
		}
		e.Flush()
		msgs, _ := sizes(w)
		if want := []int{256, 256, 256, 232}; !reflect.DeepEqual(msgs, want) {
			t.Fatalf("1000 INVs left as batches of %v, want %v", msgs, want)
		}
		next := proto.Key(0)
		for _, s := range w.sent {
			for _, sm := range entries(t, s.msg) {
				if k := sm.Msg.(core.INV).Key; k != next {
					t.Fatalf("INV %d sent where %d was due: the split reordered the stage", k, next)
				}
				next++
			}
		}
	})
}

// TestCoalescerBurstAllocationBudget: staging and flushing a window
// allocates nothing in the egress — the stages are warm arrays — so what is
// left is one box per non-empty stage: the ShardBatch (or lone ShardMsg)
// envelope boxed for the wire's any.
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
	burst := func(stages ...[16]any) func() {
		return func() {
			for _, msgs := range stages {
				for _, m := range msgs {
					e.Send(1, m)
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
