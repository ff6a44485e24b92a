package wings

import (
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	frame, err := Encode(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	got, err := DecodeOne(frame)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

// sampleMessages returns one instance of every wire message (shared with
// the corruption tests).
func sampleMessages() []any {
	return []any{
		core.INV{Epoch: 3, Key: 42, TS: proto.TS{Version: 9, CID: 2}, Value: proto.Value("hello"), RMW: true},
		core.ACK{Epoch: 7, Key: 1, TS: proto.TS{Version: 4, CID: 1}},
		core.ACK{Epoch: 7, Key: 1, TS: proto.TS{Version: 4, CID: 1},
			Higher: true, HTS: proto.TS{Version: 6, CID: 2}, HVal: proto.Value("rival"), HRMW: true},
		core.VAL{Epoch: 2, Key: 99, TS: proto.TS{Version: 8, CID: 3}},
		core.MCheck{Epoch: 5, Seq: 11},
		core.ChunkResp{Epoch: 1, Cursor: 514, Done: true,
			Keys: []proto.Key{5},
			Recs: []core.ChunkRec{{TS: proto.TS{Version: 2}, Value: proto.Value("a")}}},
		proto.MUpdate{Shard: 2, View: proto.View{Epoch: 9,
			Members: []proto.NodeID{0, 1, 2}, Learners: []proto.NodeID{4}}},
		proto.EpochGossip{Epochs: []uint32{4, 4, 7, 1}},
	}
}

func TestCodecRoundTrips(t *testing.T) {
	msgs := []any{
		core.INV{Epoch: 3, Key: 42, TS: proto.TS{Version: 9, CID: 2}, Value: proto.Value("hello"), RMW: true},
		core.INV{Epoch: 1, Key: 0, TS: proto.TS{}, Value: nil},
		core.ACK{Epoch: 7, Key: 1, TS: proto.TS{Version: 4, CID: 1}},
		// A teaching ACK (ACK-without-apply): the payload carrying the
		// acker's outranking entry must survive the wire bit-exact.
		core.ACK{Epoch: 7, Key: 1, TS: proto.TS{Version: 4, CID: 1},
			Higher: true, HTS: proto.TS{Version: 6, CID: 2}, HVal: proto.Value("rival"), HRMW: true},
		core.VAL{Epoch: 2, Key: 99, TS: proto.TS{Version: 8, CID: 3}},
		core.MCheck{Epoch: 5, Seq: 11},
		core.MCheckAck{Epoch: 5, Seq: 11},
		core.ChunkReq{Epoch: 1, Cursor: 512, MaxKeys: 64},
		core.ChunkResp{Epoch: 1, Cursor: 514, Done: true,
			Keys: []proto.Key{5, 6},
			Recs: []core.ChunkRec{
				{TS: proto.TS{Version: 2, CID: 0}, Value: proto.Value("a")},
				{TS: proto.TS{Version: 3, CID: 1}, Value: proto.Value("bb"), RMW: true, Invalid: true},
			}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestCodecINVProperty(t *testing.T) {
	f := func(epoch uint32, key uint64, ver uint32, cid uint16, rmw bool, val []byte) bool {
		in := core.INV{Epoch: epoch, Key: proto.Key(key), TS: proto.TS{Version: ver, CID: cid}, RMW: rmw, Value: val}
		if len(val) == 0 {
			in.Value = nil
		}
		frame, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := DecodeOne(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Encode("not a protocol message"); err == nil {
		t.Fatal("encoded a foreign type")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	frame, _ := Encode(core.ACK{Epoch: 1, Key: 2, TS: proto.TS{Version: 3}})
	for cut := 1; cut < len(frame); cut++ {
		if _, err := DecodeOne(frame[:cut]); err == nil {
			t.Fatalf("accepted frame truncated to %d bytes", cut)
		}
	}
}

// pipePair builds two linked Links over a net.Pipe and starts Serve pumps.
func pipePair(t *testing.T, cfg LinkConfig) (a, b *Link, recvA, recvB chan any, closeFn func()) {
	t.Helper()
	ca, cb := net.Pipe()
	a = NewLink(ca, cfg)
	b = NewLink(cb, cfg)
	recvA = make(chan any, 1024)
	recvB = make(chan any, 1024)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Serve(ca, func(m any) { recvA <- m }) }()
	go func() { defer wg.Done(); b.Serve(cb, func(m any) { recvB <- m }) }()
	return a, b, recvA, recvB, func() {
		a.Close()
		b.Close()
		ca.Close()
		cb.Close()
		wg.Wait()
	}
}

func TestLinkDeliversMessages(t *testing.T) {
	a, _, _, recvB, done := pipePair(t, LinkConfig{})
	defer done()
	want := core.INV{Epoch: 1, Key: 7, TS: proto.TS{Version: 2, CID: 1}, Value: proto.Value("v")}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recvB:
		inv, ok := got.(core.INV)
		if !ok {
			t.Fatalf("got %T, want core.INV", got)
		}
		// A wire-decoded INV with a value arrives owner-backed: its Value is
		// a zero-copy sub-slice of the pooled frame buffer, pinned by one
		// reference the receiver must consume.
		if inv.Owner == nil {
			t.Fatalf("decoded INV carries no frame-buffer owner: %+v", inv)
		}
		inv.ReleaseOwner()
		inv.Owner = nil
		if !reflect.DeepEqual(inv, want) {
			t.Fatalf("got %+v", inv)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestLinkOpportunisticBatching(t *testing.T) {
	a, _, _, recvB, done := pipePair(t, LinkConfig{})
	defer done()
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-recvB:
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout at message %d", i)
		}
	}
	st := a.Stats()
	if st.MsgsSent != n {
		t.Fatalf("sent %d", st.MsgsSent)
	}
	// net.Pipe is synchronous, so sends pile up while a flush blocks:
	// far fewer frames than messages proves batching.
	if st.FramesSent >= n {
		t.Fatalf("no batching: %d frames for %d messages", st.FramesSent, n)
	}
	if st.BatchedMsgs == 0 {
		t.Fatal("no batched messages recorded")
	}
}

func TestLinkImplicitCredits(t *testing.T) {
	cfg := LinkConfig{
		Credits: 4,
		IsResponse: func(m any) bool {
			_, isACK := m.(core.ACK)
			return isACK
		},
	}
	a, b, recvA, recvB, done := pipePair(t, cfg)
	defer done()
	_ = recvA
	// Echo server: b responds to INVs with ACKs, repaying credits.
	go func() {
		for m := range recvB {
			if inv, ok := m.(core.INV); ok {
				b.Send(core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS})
			}
		}
	}()
	// Send far more than the window; implicit credits must keep it moving.
	const n = 50
	got := 0
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(core.INV{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	deadline := time.After(5 * time.Second)
	for got < n {
		select {
		case m := <-recvA:
			if _, ok := m.(core.ACK); ok {
				got++
			}
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("stalled after %d acks (credit accounting broken)", got)
		}
	}
	if st := a.Stats(); st.ImplicitCreditsRecovered == 0 {
		t.Fatal("no implicit credits recovered")
	}
}

func TestServeRejectsGarbage(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	l := NewLink(ca, LinkConfig{})
	errCh := make(chan error, 1)
	go func() { errCh <- l.Serve(ca, func(any) {}) }()
	cb.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd frame length
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("accepted garbage frame header")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not reject garbage")
	}
}

func TestClosedLinkSendFails(t *testing.T) {
	ca, _ := net.Pipe()
	l := NewLink(ca, LinkConfig{})
	l.Close()
	if err := l.Send(core.ACK{}); err == nil {
		t.Fatal("send on closed link succeeded")
	}
}

var _ io.Reader = (*net.TCPConn)(nil) // interface sanity
