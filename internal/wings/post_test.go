package wings

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// frameLog is a link's stream that decodes every Write back into messages,
// and can hold the flusher inside a Write.
type frameLog struct {
	mu    sync.Mutex
	msgs  []any
	wedge chan struct{} // non-nil: Write blocks until it is closed
}

func (f *frameLog) Write(p []byte) (int, error) {
	f.mu.Lock()
	wedge := f.wedge
	f.mu.Unlock()
	if wedge != nil {
		<-wedge
	}
	var got []any
	err := NewLink(io.Discard, LinkConfig{}).Serve(bytes.NewReader(p), func(m any) {
		if sb, ok := m.(proto.ShardBatch); ok {
			m = proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)} // the slice is Serve's scratch
		}
		got = append(got, m)
	})
	if err != io.EOF {
		return 0, fmt.Errorf("frameLog: one Write is not one whole frame: %v", err)
	}
	f.mu.Lock()
	f.msgs = append(f.msgs, got...)
	f.mu.Unlock()
	return len(p), nil
}

func (f *frameLog) snapshot() []any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]any(nil), f.msgs...)
}

func (f *frameLog) waitFor(t *testing.T, n int) []any {
	t.Helper()
	waitFor(t, func() bool { return len(f.snapshot()) >= n })
	return f.snapshot()
}

func isACK(m any) bool { _, ok := m.(core.ACK); return ok }

func inv(key int) core.INV { return core.INV{Epoch: 1, Key: proto.Key(key), TS: proto.TS{Version: 1}} }
func ack(key int) core.ACK { return core.ACK{Epoch: 1, Key: proto.Key(key), TS: proto.TS{Version: 1}} }

// window reads the link's credit level and checks it against its bounds.
func window(t *testing.T, l *Link) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.credits < 0 || l.credits > l.cfg.Credits {
		t.Fatalf("credits = %d, outside [0, %d]", l.credits, l.cfg.Credits)
	}
	return l.credits
}

// TestPostOverflowShedsAndReleasesOwners fills a link behind a wedged stream
// with INVs that each hold a reference on a pooled frame. Post never consults
// the window — the one credit here does not hold it up — so only the byte
// bound binds: the message that crosses maxQueuedBytes is the last one
// admitted; later ones are shed and counted one by one, responses too.
// Admitted or shed, every Post spends its reference on the spot (the bytes
// were copied, or dropped), and what was admitted all ships, in order, once
// the stream reopens.
func TestPostOverflowShedsAndReleasesOwners(t *testing.T) {
	const valLen = 128 << 10
	log := &frameLog{wedge: make(chan struct{})}
	l := NewLink(log, LinkConfig{Credits: 1, IsResponse: isACK})
	defer l.Close()
	frame := refbuf.NewPool().Get(valLen)
	post := func(key int) error {
		frame.Retain()
		err := l.Post(core.INV{Epoch: 1, Key: proto.Key(key), TS: proto.TS{Version: 2}, Value: frame.Bytes(), Owner: frame})
		if got := frame.Refs(); got != 1 {
			t.Fatalf("frame refs after Post (err = %v) = %d, want the baseline 1", err, got)
		}
		return err
	}
	if err := post(0); err != nil { // taken by the flusher, which wedges in Write
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().FramesSent == 1 })

	admitted := 1
	for ; ; admitted++ {
		if err := post(admitted); err != nil {
			if err != errQueueFull {
				t.Fatal(err)
			}
			break
		}
		if admitted > 2*maxQueuedBytes/valLen {
			t.Fatalf("%d × %d bytes admitted: the bound does not bind", admitted, valLen)
		}
	}
	l.mu.Lock()
	queued := len(l.pending)
	l.mu.Unlock()
	if queued < maxQueuedBytes || queued-valLen-64 >= maxQueuedBytes {
		t.Fatalf("%d bytes queued at the first shed, want the bound %d crossed by one message", queued, maxQueuedBytes)
	}
	const late = 5
	for i := 0; i < late; i++ {
		if err := post(-1); err != errQueueFull {
			t.Fatalf("Post on a full link: %v", err)
		}
	}
	if err := l.Post(ack(1)); err != errQueueFull {
		t.Fatalf("a response posted to a full link: %v; the bound is on bytes, not on class", err)
	}
	if st := l.Stats(); st.Shed != 1+late+1 || st.CreditStalls != 0 {
		t.Fatalf("Shed = %d, CreditStalls = %d; want %d shed and no stall", st.Shed, st.CreditStalls, 1+late+1)
	}

	close(log.wedge)
	got := log.waitFor(t, admitted)
	waitFor(t, func() bool { return !flusherBusy(l) })
	if got = log.snapshot(); len(got) != admitted {
		t.Fatalf("%d messages shipped, %d admitted", len(got), admitted)
	}
	for i, m := range got {
		if k := m.(core.INV).Key; k != proto.Key(i) {
			t.Fatalf("message %d shipped is INV %d: Post reordered", i, k)
		}
	}
	if err := post(admitted); err != nil {
		t.Fatalf("Post after the drain: %v", err)
	}
}

// TestCloseWithQueuedLeaksNothing: closing a link behind a wedged stream
// drops what is queued — only bytes by then, the references were spent as
// each message was encoded — and stops its flusher.
func TestCloseWithQueuedLeaksNothing(t *testing.T) {
	log := &frameLog{wedge: make(chan struct{})}
	l := NewLink(log, LinkConfig{})
	frame := refbuf.NewPool().Get(16)
	post := func(key int) error {
		frame.Retain()
		return l.Post(core.INV{Epoch: 1, Key: proto.Key(key), TS: proto.TS{Version: 2}, Value: frame.Bytes(), Owner: frame})
	}
	if err := post(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().FramesSent == 1 }) // the flusher is inside Write
	for i := 1; i < 10; i++ {
		if err := post(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := frame.Refs(); got != 1 {
		t.Fatalf("frame refs with 9 messages queued = %d, want the baseline 1", got)
	}
	l.Close()
	close(log.wedge)
	waitFor(t, func() bool { return !flusherBusy(l) })
	if err := post(99); err != errLinkClosed {
		t.Fatalf("Post on a closed link: %v", err)
	}
	if got := frame.Refs(); got != 1 {
		t.Fatalf("frame refs after Close = %d, want the baseline 1", got)
	}
	if got := log.snapshot(); len(got) != 1 {
		t.Fatalf("%d messages shipped, want only the one in flight at Close: %v", len(got), got)
	}
}

// wholeFrames checks that every Write it gets is exactly one frame — header
// and body in one piece, the count matching the messages present — and notes
// the largest.
type wholeFrames struct {
	t       *testing.T
	mu      sync.Mutex
	frames  int
	largest int
}

func (w *wholeFrames) Write(p []byte) (int, error) {
	if len(p) < frameHdrLen || int(binary.LittleEndian.Uint32(p)) != len(p)-4 {
		w.t.Errorf("a Write of %d bytes is not one frame (header says %d)", len(p), binary.LittleEndian.Uint32(p))
		return len(p), nil
	}
	count, off := int(binary.LittleEndian.Uint16(p[4:])), frameHdrLen
	for i := 0; i < count; i++ {
		off += 5 + int(binary.LittleEndian.Uint32(p[off+1:]))
	}
	if off != len(p) {
		w.t.Errorf("frame of %d bytes: its %d messages end at %d", len(p), count, off)
	}
	w.mu.Lock()
	w.frames++
	w.largest = max(w.largest, len(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestEveryFrameIsOneWrite: the header is reserved in the send buffer and
// patched at flush, so whatever a frame carries — one small message, or a
// value far past the old writev threshold — it reaches the stream as one
// contiguous Write.
func TestEveryFrameIsOneWrite(t *testing.T) {
	w := &wholeFrames{t: t}
	l := NewLink(w, LinkConfig{})
	defer l.Close()
	for _, m := range []any{ack(1), core.INV{Epoch: 1, Key: 2, Value: make(proto.Value, 64<<10)}} {
		if err := l.Send(m); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return !flusherBusy(l) })
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.frames != 2 || w.largest < 64<<10 {
		t.Fatalf("%d frames, largest %d bytes; want 2 frames, one over 64 KiB", w.frames, w.largest)
	}
	if st := l.Stats(); st.MsgsSent != 2 {
		t.Fatalf("stats %+v; want 2 messages", st)
	}
}
