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

// TestPiggybackedCreditGrants pins the grant-deferral path deterministically:
// b's flusher is wedged on a write (nobody reads its end yet), so a grant
// falling due while the flush is in flight must ride the outbound queue
// instead of paying for a standalone credit frame — and must still reach the
// peer once the flusher drains.
func TestPiggybackedCreditGrants(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	a := NewLink(ca, LinkConfig{Credits: 4})
	b := NewLink(cb, LinkConfig{Credits: 4, ExplicitEvery: 1})
	defer a.Close()
	defer b.Close()

	recvB := make(chan any, 64)
	go b.Serve(cb, func(m any) { recvB <- m })

	// Wedge b's flusher: its write to cb blocks until ca is read, which
	// nothing does yet. FramesSent is bumped before the socket write, so
	// once it reads 1 the flush is provably in flight.
	if err := b.Send(core.VAL{Epoch: 1, Key: 100, TS: proto.TS{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().FramesSent == 1 })

	// One-way traffic into b makes a grant fall due mid-flush: it must be
	// deferred onto the wedged flusher, not shipped standalone. recvB fires
	// after onReceive, so once it delivers, the deferral has happened.
	if err := a.Send(core.VAL{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	<-recvB
	// Queue a data message behind the wedge so the deferred grant has a
	// frame to ride when the flusher drains.
	if err := b.Send(core.VAL{Epoch: 1, Key: 101, TS: proto.TS{Version: 1}}); err != nil {
		t.Fatal(err)
	}

	// Unwedge: reading a's end lets b's flusher drain, which must now ship
	// the deferred grant with the queued VAL; a's window reopens and far
	// more one-way VALs than the 4-credit window complete.
	go a.Serve(ca, func(any) {})
	waitFor(t, func() bool { return b.Stats().PiggybackedGrants == 1 })
	const n = 12
	errCh := make(chan error, 1)
	go func() {
		for i := 2; i <= n; i++ {
			if err := a.Send(core.VAL{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for got := 1; got < n; {
		select {
		case <-recvB:
			got++
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("one-way traffic stalled at %d/%d (piggybacked grant lost?)", got, n)
		}
	}
	if st := b.Stats(); st.ExplicitCreditsSent < st.PiggybackedGrants {
		t.Fatalf("piggybacked grants (%d) not counted in ExplicitCreditsSent (%d)",
			st.PiggybackedGrants, st.ExplicitCreditsSent)
	}
}

// TestHugePendingBacklogSplitsFrames pins the frame-count bound: more
// messages than a frame's 2-byte count can carry may accumulate while a
// flush is wedged (responses are credit-exempt, so nothing backpressures
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
