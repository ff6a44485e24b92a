package wings

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// Allocation budgets of the link, pinned as tier-1 tests: the replicated
// write's hot path crosses Send → flush on every message and Serve → decode
// on every frame, and what these paths allocate is what the collector pays
// per write (see "Allocation budget of a replicated write" in
// internal/README.md).

// sink is an io.Writer that swallows frames.
type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }

// TestSendFlushAllocatesNothing: in steady state, queueing an already boxed
// ACK and flushing it allocates nothing — the send buffer is the recycled
// spare with the frame header reserved in it, the stats are atomics and the
// flusher starts without a closure — through any door: Post is Send with one
// branch at the wait, and must cost what Send costs; the typed request door
// takes a request from its caller's stack, so there is not even a box to
// bring. Each run waits for the flusher to go idle, so every message starts a
// fresh flusher goroutine: the buffers must survive that gap too.
func TestSendFlushAllocatesNothing(t *testing.T) {
	l := NewLink(sink{}, LinkConfig{})
	defer l.Close()
	var msg any = core.ACK{Epoch: 1, Key: 42, TS: proto.TS{Version: 2, CID: 1}}
	val := make(proto.Value, 32)
	sendClientReq := func(any) error {
		return l.SendClientReq(&proto.ClientReq{Seq: 9, Op: proto.OpWrite, Key: 42, Value: val})
	}
	sent := uint64(0)
	for name, door := range map[string]func(any) error{"Send": l.Send, "Post": l.Post, "SendClientReq": sendClientReq} {
		sendAndFlush := func() {
			if err := door(msg); err != nil {
				t.Fatal(err)
			}
			sent++
			for l.Stats().MsgsSent < sent || flusherBusy(l) {
				runtime.Gosched()
			}
		}
		sendAndFlush() // first flush grows the buffers
		sendAndFlush() // second one brings the spare back
		if n := testing.AllocsPerRun(200, sendAndFlush); n != 0 {
			t.Fatalf("%s+flush allocates %.0f times, want 0", name, n)
		}
	}
}

func flusherBusy(l *Link) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushing
}

// TestSendBufferRecycledNotRetainedPastCap: the flushed buffer comes back as
// the spare, but one grown past maxSpareBuf by a burst is dropped.
func TestSendBufferRecycledNotRetainedPastCap(t *testing.T) {
	l := NewLink(sink{}, LinkConfig{})
	defer l.Close()
	flush := func(msg any) {
		if err := l.Send(msg); err != nil {
			t.Fatal(err)
		}
		for flusherBusy(l) {
			runtime.Gosched()
		}
	}
	flush(core.ACK{Epoch: 1, Key: 1})
	l.mu.Lock()
	kept := cap(l.spare) + cap(l.pending)
	l.mu.Unlock()
	if kept == 0 {
		t.Fatal("no send buffer retained after a small flush")
	}
	flush(core.INV{Epoch: 1, Key: 1, Value: make(proto.Value, 2*maxSpareBuf)})
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.spare) > maxSpareBuf || cap(l.pending) > maxSpareBuf {
		t.Fatalf("burst buffer retained: spare cap %d, pending cap %d, limit %d", cap(l.spare), cap(l.pending), maxSpareBuf)
	}
}

// TestServeShardBatchAllocationBudget: a received 16-ACK batch costs one box
// per inner message — forced by proto.ShardMsg.Msg being an interface — and
// one for the envelope handed to fn (func(any)); the slice holding the
// entries is the serve loop's scratch and the frame buffer is pooled. The
// frame handler is called with the body as the stream reader hands it over.
func TestServeShardBatchAllocationBudget(t *testing.T) {
	var sb proto.ShardBatch
	for i := 0; i < 16; i++ {
		sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: uint16(i % 2), Msg: core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}})
	}
	frame, err := AppendFrame(nil, sb)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLink(sink{}, LinkConfig{})
	defer l.Close()
	var scratch []proto.ShardMsg
	got := 0
	serve := func() {
		if err := l.serveFrame(frame[4:], func(m any) { got += len(m.(proto.ShardBatch).Msgs) }, &scratch); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	if n := testing.AllocsPerRun(200, serve); n > 17 {
		t.Fatalf("serving a 16-ACK ShardBatch allocates %.0f times, want <= 17", n)
	}
	if got == 0 || got%16 != 0 {
		t.Fatalf("fn saw %d inner messages", got)
	}
	for i, sm := range scratch[:cap(scratch)] {
		if sm.Msg != nil {
			t.Fatalf("scratch entry %d still references a message after fn returned", i)
		}
	}
}
