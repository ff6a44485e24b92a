package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// scriptTransport records what reaches the wrapped transport and lets the
// test deliver messages as the mesh would.
type scriptTransport struct {
	sent    int
	deliver func(from proto.NodeID, msg any)
}

func (s *scriptTransport) Send(from, to proto.NodeID, msg any) { s.sent++ }
func (s *scriptTransport) SetDeliver(_ proto.NodeID, fn func(proto.NodeID, any)) {
	s.deliver = fn
}
func (s *scriptTransport) Close() error { return nil }

// sampledTS finds a timestamp whose (key, TS) identity the pairing samples.
func sampledTS(key proto.Key, sampled bool) proto.TS {
	for v := uint32(2); ; v += 2 {
		ts := proto.TS{Version: v}
		if (invID(key, ts)>>1&invSampleMask == 0) == sampled {
			return ts
		}
	}
}

func TestTransportWrapperPairsINVWithLastACK(t *testing.T) {
	tr := newTracer()
	inner := &scriptTransport{}
	w := &tracedTransport{inner: inner, tr: tr}
	delivered := 0
	w.SetDeliver(0, func(proto.NodeID, any) { delivered++ })
	tr.on.Store(true)

	key := proto.Key(11)
	ts, other := sampledTS(key, true), sampledTS(key, false)
	inv := core.INV{Epoch: 1, Key: key, TS: ts, Value: make(proto.Value, 32)}
	unsampled := core.INV{Epoch: 1, Key: key, TS: other}

	// The coordinator's coalescers ship the INV to follower 1 inside a batch
	// and to follower 2 as a lone ShardMsg.
	w.Send(0, 1, proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 1, Msg: inv}, {Shard: 0, Msg: unsampled}}})
	w.Send(0, 2, proto.ShardMsg{Shard: 1, Msg: inv})
	first := tr.pairs[invID(key, ts)>>8%pairSlots].start.Load()

	ack := core.ACK{Epoch: 1, Key: key, TS: ts}
	inner.deliver(1, proto.ShardMsg{Shard: 1, Msg: ack})
	if n := tr.rings[spanInvAck].n.Load(); n != 0 {
		t.Fatalf("pairing closed after the first of two ACKs (%d spans)", n)
	}
	inner.deliver(2, proto.ShardBatch{Msgs: []proto.ShardMsg{
		{Shard: 0, Msg: core.ACK{Epoch: 1, Key: key, TS: other}},
		{Shard: 1, Msg: ack},
	}})
	if n := tr.rings[spanInvAck].n.Load(); n != 1 {
		t.Fatalf("want one INV→ACK span, have %d", n)
	}
	sp := tr.rings[spanInvAck].buf[0]
	if sp.id != invID(key, ts) || sp.start != first || sp.end < sp.start {
		t.Errorf("span %+v: want id %x starting at the first Send (%d)", sp, invID(key, ts), first)
	}
	if slot := &tr.pairs[invID(key, ts)>>8%pairSlots]; slot.id.Load() != 0 {
		t.Error("the closed pairing still holds its slot")
	}

	// A VAL round and the counters: 3 INVs, 0 ACKs sent, 2 VALs, 4 Sends.
	w.Send(0, 1, proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 1, Msg: core.VAL{Key: key, TS: ts}}, {Shard: 1, Msg: core.VAL{Key: key, TS: other}}}})
	w.Send(0, 2, proto.MUpdate{})
	if inv, ack, val, oth, sends := tr.invs.Load(), tr.acks.Load(), tr.vals.Load(), tr.others.Load(), tr.sends.Load(); inv != 3 || ack != 0 || val != 2 || oth != 1 || sends != 4 {
		t.Errorf("counted inv=%d ack=%d val=%d other=%d sends=%d, want 3 0 2 1 4", inv, ack, val, oth, sends)
	}
	if inner.sent != 4 || delivered != 2 {
		t.Errorf("wrapper passed on %d sends and %d deliveries, want 4 and 2", inner.sent, delivered)
	}

	// Off: everything passes through and nothing is counted.
	tr.on.Store(false)
	w.Send(0, 1, proto.ShardMsg{Shard: 1, Msg: inv})
	inner.deliver(1, proto.ShardMsg{Shard: 1, Msg: ack})
	if tr.sends.Load() != 4 || inner.sent != 5 || delivered != 3 {
		t.Errorf("tracing off: sends counted %d, passed on %d, delivered %d", tr.sends.Load(), inner.sent, delivered)
	}
}
