package wings

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestHugePendingBacklogSplitsFrames pins the frame-count bound: more
// messages than a frame's 2-byte count can carry may accumulate while a
// flush is wedged (responses cost no credit, so nothing backpressures
// them), and the backlog must ship as several frames rather than silently
// truncating the count to uint16 and losing the overflow.
func TestHugePendingBacklogSplitsFrames(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	isResponse := func(m any) bool { _, ok := m.(core.ACK); return ok }
	a := NewLink(ca, LinkConfig{Credits: 4, IsResponse: isResponse})
	b := NewLink(cb, LinkConfig{})
	defer a.Close()
	defer b.Close()

	// Wedge a's flusher (nobody reads its end), then queue more ACKs than
	// one frame can count.
	const n = maxFrameMsgs + 10
	if err := a.Send(core.ACK{Epoch: 1, Key: 0, TS: proto.TS{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Stats().FramesSent == 1 })
	for i := 1; i < n; i++ {
		if err := a.Send(core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	got := make(chan int)
	go func() {
		count := 0
		b.Serve(cb, func(m any) {
			if _, ok := m.(core.ACK); ok {
				count++
				if count == n {
					got <- count
				}
			}
		})
	}()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		st := b.Stats()
		t.Fatalf("backlog lost: received %d of %d messages in %d frames",
			st.MsgsRecv, n, st.FramesRecv)
	}
	if st := a.Stats(); st.FramesSent < 3 {
		t.Fatalf("backlog shipped in %d frames, want >=3 (wedge + split)", st.FramesSent)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkServeClientReqs measures a session's receive path, read requests
// in frames of eight; -benchmem shows what is left per request once the frame
// buffer is pooled and the request lives in the loop (nothing: a read has no
// value to copy).
func BenchmarkServeClientReqs(b *testing.B) {
	var stream []byte
	const frames, perFrame = 1000, 8
	reqs := make([]any, perFrame)
	for i := 0; i < frames; i++ {
		for j := range reqs {
			reqs[j] = proto.ClientReq{Seq: uint64(i*perFrame + j), Op: proto.OpRead, Key: proto.Key(j)}
		}
		var err error
		if stream, err = AppendFrame(stream, reqs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ServeClientReqs(bytes.NewReader(stream), nil, func(*proto.ClientReq) error { return nil }); err != io.EOF {
			b.Fatal(err)
		}
	}
}
