package wings

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// TestZeroCopyValueSurvivesFrameReuse is the end-to-end pin of the zero-copy
// receive path: a decoded INV's value aliases the pooled frame buffer, and
// the reference the decoder retained must keep that buffer out of the pool —
// across arbitrary later traffic on the link — until the holder releases it.
// Without the refcount, the serve loop would recycle the frame after
// dispatch and a later frame read would overwrite the retained value.
func TestZeroCopyValueSurvivesFrameReuse(t *testing.T) {
	a, _, _, recvB, done := pipePair(t, LinkConfig{})
	defer done()

	first := bytes.Repeat([]byte{0x5A}, 512)
	if err := a.Send(core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 2}, Value: first}); err != nil {
		t.Fatal(err)
	}
	var held core.INV
	select {
	case m := <-recvB:
		held = m.(core.INV)
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for first INV")
	}
	if held.Owner == nil {
		t.Fatal("decoded INV carries no owner; zero-copy path not taken")
	}
	// The value must alias the frame, not copy it.
	if !sliceWithin(held.Value, held.Owner.Bytes()) {
		t.Fatal("decoded value does not alias the frame buffer")
	}

	// Churn the link: every later frame draws a buffer from the same pool.
	// The held reference must keep the first frame pinned, so none of this
	// traffic may scribble over the retained value.
	for i := 0; i < 64; i++ {
		filler := bytes.Repeat([]byte{byte(i)}, 512)
		if err := a.Send(core.INV{Epoch: 1, Key: proto.Key(2 + i), TS: proto.TS{Version: 2}, Value: filler}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-recvB:
			m.(core.INV).ReleaseOwner() // this consumer is done immediately
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout at churn frame %d", i)
		}
	}

	if !bytes.Equal(held.Value, first) {
		t.Fatalf("retained value corrupted by frame reuse: %x...", held.Value[:8])
	}
	held.ReleaseOwner()
}

// sliceWithin reports whether sub's backing array lies inside outer's.
func sliceWithin(sub, outer []byte) bool {
	if len(sub) == 0 || len(outer) == 0 {
		return false
	}
	for i := range outer {
		if &outer[i] == &sub[0] {
			return i+len(sub) <= len(outer)
		}
	}
	return false
}

// TestSendReleasesOwnersOnEncodeError fault-injects the encoder: a ShardBatch
// whose second entry cannot be encoded fails after the first entry's INV (and
// its frame reference) entered appendMsg. Send owns the references on every
// path, so the failure must release them exactly once — refs hit zero, no
// panic from a double release — refund what Send debited exactly once, and
// leave the link usable.
func TestSendReleasesOwnersOnEncodeError(t *testing.T) {
	var sink bytes.Buffer
	l := NewLink(&sink, LinkConfig{Credits: 4})
	pool := refbuf.NewPool()

	// Through either door: the failed encode is in the body Send and Post
	// share. Only Send debits, so only its failure has a credit to refund.
	for i, door := range []func(any) error{l.Send, l.Post} {
		fb := pool.Get(8)
		copy(fb.Bytes(), "payload!")
		batch := proto.ShardBatch{Msgs: []proto.ShardMsg{
			{Shard: 0, Msg: core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 2},
				Value: fb.Bytes()[0:8:8], Owner: fb}},
			{Shard: 1, Msg: struct{ not any }{}}, // no encoder case: appendMsg fails
		}}
		if err := door(batch); err == nil {
			t.Fatal("a batch with an unencodable entry was encoded")
		}
		if got := fb.Refs(); got != 0 {
			t.Fatalf("frame refs after the encode error = %d, want 0", got)
		}
		if st := l.Stats(); st.CreditsRefunded != 1 {
			t.Fatalf("CreditsRefunded = %d after %d encode failures: %+v", st.CreditsRefunded, i+1, st)
		}
		// The counter says a refund happened; the window says it happened
		// exactly once. A dropped refund leaves it short, a doubled one long.
		l.mu.Lock()
		credits := l.credits
		l.mu.Unlock()
		if credits != l.cfg.Credits {
			t.Fatalf("window = %d credits after %d encode failures, want %d", credits, i+1, l.cfg.Credits)
		}
	}
	// The failure must not have corrupted the pending queue or the window.
	if err := l.Send(core.ACK{Epoch: 1, Key: 2, TS: proto.TS{Version: 1}}); err != nil {
		t.Fatalf("link unusable after encode error: %v", err)
	}

	t.Run("closed link", func(t *testing.T) {
		l2 := NewLink(&bytes.Buffer{}, LinkConfig{})
		l2.Close()
		fb2 := pool.Get(4)
		inv := core.INV{Epoch: 1, Key: 3, TS: proto.TS{Version: 2},
			Value: fb2.Bytes()[0:4:4], Owner: fb2}
		if err := l2.Send(inv); err == nil {
			t.Fatal("send on closed link succeeded")
		}
		if got := fb2.Refs(); got != 0 {
			t.Fatalf("frame refs after closed-link Send = %d, want 0", got)
		}
	})

	t.Run("success path", func(t *testing.T) {
		l3 := NewLink(&bytes.Buffer{}, LinkConfig{})
		fb3 := pool.Get(4)
		inv := core.INV{Epoch: 1, Key: 4, TS: proto.TS{Version: 2},
			Value: fb3.Bytes()[0:4:4], Owner: fb3}
		if err := l3.Send(inv); err != nil {
			t.Fatal(err)
		}
		// The encoder copies value bytes into the send buffer synchronously:
		// the reference is spent when Send returns, success included.
		if got := fb3.Refs(); got != 0 {
			t.Fatalf("frame refs after successful Send = %d, want 0", got)
		}
	})
}

// TestAppendClientRespsMatchesAppendFrame pins the monomorphic response
// encoder to the generic frame encoder bit for bit, including the enum-range
// rejection, so the two framings cannot drift.
func TestAppendClientRespsMatchesAppendFrame(t *testing.T) {
	resps := []proto.ClientResp{
		{Seq: 1, Status: proto.OK, Value: proto.Value("hello")},
		{Seq: 2, Status: proto.Aborted},
		{Seq: 3, Status: proto.CASFailed, Value: proto.Value("observed-value")},
		{Seq: 4, Status: proto.NotOperational, Value: nil},
	}
	anys := make([]any, len(resps))
	for i, r := range resps {
		anys[i] = r
	}
	want, err := AppendFrame(nil, anys...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendClientResps(nil, resps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frames differ:\n got %x\nwant %x", got, want)
	}

	bad := []proto.ClientResp{{Seq: 9, Status: proto.NotOperational + 1}}
	if _, err := AppendClientResps(nil, bad); err != ErrBadEnum {
		t.Fatalf("out-of-range status: err = %v, want ErrBadEnum", err)
	}
}

// TestAppendClientRespsZeroAlloc is the read→resp-encode half of the
// allocation satellite: flushing a batch of responses into a warm, reused
// buffer must not allocate at all — the encoder is monomorphic precisely to
// avoid the per-response interface boxing of AppendFrame's []any.
func TestAppendClientRespsZeroAlloc(t *testing.T) {
	resps := make([]proto.ClientResp, 16)
	for i := range resps {
		resps[i] = proto.ClientResp{
			Seq: uint64(i), Status: proto.OK,
			Value: bytes.Repeat([]byte{byte(i)}, 64),
		}
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendClientResps(buf[:0], resps)
		if err != nil || len(out) == 0 {
			panic(fmt.Sprintf("encode failed: %v", err))
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendClientResps into a warm buffer allocates %v per run, want 0", allocs)
	}
}

// TestServePoolsPinnedFramesIndependently drives two links that share the
// package-level frame pool concurrently while one of them holds values
// pinned, checking the pool never hands a pinned buffer to the other link.
func TestServePoolsPinnedFramesIndependently(t *testing.T) {
	a1, _, _, recv1, done1 := pipePair(t, LinkConfig{})
	defer done1()
	a2, _, _, recv2, done2 := pipePair(t, LinkConfig{})
	defer done2()

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	drive := func(l *Link, recv chan any, tag byte) {
		defer wg.Done()
		var pinned []core.INV
		for i := 0; i < 128; i++ {
			val := bytes.Repeat([]byte{tag, byte(i)}, 64)
			if err := l.Send(core.INV{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}, Value: val}); err != nil {
				errs <- err
				return
			}
			select {
			case m := <-recv:
				inv := m.(core.INV)
				pinned = append(pinned, inv)
				if len(pinned) > 8 { // hold a sliding window of 8 frames
					old := pinned[0]
					pinned = pinned[1:]
					if old.Value[0] != tag {
						errs <- fmt.Errorf("link %c: pinned value overwritten: %x", tag, old.Value[:2])
						return
					}
					old.ReleaseOwner()
				}
			case <-time.After(5 * time.Second):
				errs <- fmt.Errorf("link %c: timeout at %d", tag, i)
				return
			}
		}
		for _, inv := range pinned {
			if inv.Value[0] != tag {
				errs <- fmt.Errorf("link %c: tail value overwritten", tag)
				return
			}
			inv.ReleaseOwner()
		}
	}
	go drive(a1, recv1, 'A')
	go drive(a2, recv2, 'B')
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
