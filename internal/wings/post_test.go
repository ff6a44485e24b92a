package wings

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

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

func batchCost(m any) int {
	if sb, ok := m.(proto.ShardBatch); ok {
		return len(sb.Msgs)
	}
	return 1
}

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

// TestPostParksPastTheWindow: Post returns at once whatever the window holds.
// What the window cannot cover waits in the link, not the caller on it; a
// response posted afterwards ships first; repayments ship the parked messages
// oldest first — a cheap one never overtakes a dear one — and the credit
// level stays inside [0, window] throughout.
func TestPostParksPastTheWindow(t *testing.T) {
	log := &frameLog{}
	l := NewLink(log, LinkConfig{Credits: 4, IsResponse: isACK, CreditCost: batchCost})
	defer l.Close()
	post := func(m any) {
		t.Helper()
		if err := l.Post(m); err != nil {
			t.Fatal(err)
		}
	}
	batch := proto.ShardBatch{Msgs: []proto.ShardMsg{{Msg: inv(4)}, {Msg: inv(5)}, {Msg: inv(6)}}}

	posted := make(chan struct{})
	go func() {
		defer close(posted)
		for k := 0; k < 4; k++ {
			post(inv(k)) // the window's worth
		}
		post(batch)  // costs 3 of a window that has 0
		post(inv(7)) // costs 1, and still queues behind the batch
	}()
	select {
	case <-posted:
	case <-time.After(5 * time.Second):
		t.Fatal("Post blocked on a spent window")
	}
	want := []any{inv(0), inv(1), inv(2), inv(3)}
	if got := log.waitFor(t, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want the first four INVs", got)
	}
	if st := l.Stats(); st.CreditStalls != 2 || st.Shed != 0 {
		t.Fatalf("CreditStalls = %d, Shed = %d; want 2 parked and 0 shed", st.CreditStalls, st.Shed)
	}
	if c := window(t, l); c != 0 {
		t.Fatalf("credits = %d with the window spent", c)
	}

	post(ack(100)) // a response needs no credit: it does not wait behind the parked
	want = append(want, ack(100))
	if got := log.waitFor(t, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want the ACK right after the first four INVs", got)
	}

	l.RepayCredits(2) // not enough for the batch, and INV 7 must not jump it
	if c := window(t, l); c != 2 {
		t.Fatalf("credits = %d after repaying 2 to a link whose head needs 3", c)
	}
	l.RepayCredits(1) // the batch goes; nothing is left for INV 7
	want = append(want, batch)
	if got := log.waitFor(t, 6); !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want the parked batch next", got)
	}
	if c := window(t, l); c != 0 {
		t.Fatalf("credits = %d after the batch was debited as it left", c)
	}
	l.RepayCredits(100) // far above the window: clamped, then INV 7 debited
	want = append(want, inv(7))
	if got := log.waitFor(t, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want INV 7 last", got)
	}
	if c := window(t, l); c != 3 {
		t.Fatalf("credits = %d, want the clamped window less INV 7's one", c)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.parked) != 0 || l.parkHead != 0 {
		t.Fatalf("parked queue not reset after it drained: len %d, head %d", len(l.parked), l.parkHead)
	}
}

// TestMutuallyStarvedLinksDrain is PR 2's deadlock, at the link: two peers
// each with far more requests for the other than the window holds, each
// answering from its serve pump. The repayments are responses and never park,
// so neither pump blocks and both sides drain.
func TestMutuallyStarvedLinksDrain(t *testing.T) {
	const n = 200
	ca, cb := net.Pipe()
	cfg := LinkConfig{Credits: 2, IsResponse: isACK}
	links := [2]*Link{NewLink(ca, cfg), NewLink(cb, cfg)}
	conns := [2]net.Conn{ca, cb}
	acked := [2]chan struct{}{make(chan struct{}, n), make(chan struct{}, n)}
	var pumps sync.WaitGroup
	for i, l := range links {
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			l.Serve(conns[i], func(m any) {
				switch m := m.(type) {
				case core.INV:
					if err := l.Post(core.ACK{Epoch: m.Epoch, Key: m.Key, TS: m.TS}); err != nil {
						t.Error(err)
					}
				case core.ACK:
					acked[i] <- struct{}{}
				}
			})
		}()
	}
	defer func() {
		for i, l := range links {
			l.Close()
			conns[i].Close()
		}
		pumps.Wait()
	}()
	for k := 0; k < n; k++ {
		for _, l := range links {
			if err := l.Post(inv(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.After(20 * time.Second)
	for i := range links {
		for got := 0; got < n; got++ {
			select {
			case <-acked[i]:
			case <-deadline:
				t.Fatalf("side %d stalled at %d/%d ACKs: %+v", i, got, n, links[i].Stats())
			}
		}
	}
	for i, l := range links {
		if st := l.Stats(); st.CreditStalls == 0 || st.Shed != 0 {
			t.Fatalf("side %d: CreditStalls = %d, Shed = %d; the test lost its premise", i, st.CreditStalls, st.Shed)
		}
		window(t, l)
	}
}

// TestPostOverflowShedsAndReleasesOwners fills a link behind a wedged stream —
// part of it in the outgoing frame, the rest parked past a small window —
// with INVs that each hold a reference on a pooled frame. The message that
// crosses maxQueuedBytes is the last one admitted; later ones are shed and
// counted one by one. Admitted or shed, every Post spends its reference on
// the spot (the bytes were copied, or dropped), and what was admitted all
// ships once the stream and the window reopen.
func TestPostOverflowShedsAndReleasesOwners(t *testing.T) {
	const valLen = 128 << 10
	log := &frameLog{wedge: make(chan struct{})}
	l := NewLink(log, LinkConfig{Credits: 8, IsResponse: isACK})
	defer l.Close()
	frame := refbuf.NewPool().Get(valLen)
	post := func() error {
		frame.Retain()
		err := l.Post(core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 2}, Value: frame.Bytes(), Owner: frame})
		if got := frame.Refs(); got != 1 {
			t.Fatalf("frame refs after Post (err = %v) = %d, want the baseline 1", err, got)
		}
		return err
	}
	if err := post(); err != nil { // taken by the flusher, which wedges in Write
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().FramesSent == 1 })

	admitted := 1
	for ; ; admitted++ {
		if err := post(); err != nil {
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
	queued, parked := len(l.pending)+len(l.parked)-l.parkHead, len(l.parked)
	l.mu.Unlock()
	if queued < maxQueuedBytes || queued-valLen-64 >= maxQueuedBytes {
		t.Fatalf("%d bytes queued at the first shed, want the bound %d crossed by one message", queued, maxQueuedBytes)
	}
	if parked == 0 || parked == queued {
		t.Fatalf("%d of %d queued bytes parked: the bound must count both queues", parked, queued)
	}
	const late = 5
	for i := 0; i < late; i++ {
		if err := post(); err != errQueueFull {
			t.Fatalf("Post on a full link: %v", err)
		}
	}
	if st := l.Stats(); st.Shed != 1+late {
		t.Fatalf("Shed = %d, want %d", st.Shed, 1+late)
	}
	if err := l.Post(ack(1)); err != errQueueFull {
		t.Fatalf("a response posted to a full link: %v; the bound is on bytes, not on class", err)
	}

	close(log.wedge)
	for shipped := 0; shipped < admitted; {
		shipped = len(log.waitFor(t, shipped+1))
		l.RepayCredits(8)
	}
	if got := len(log.snapshot()); got != admitted {
		t.Fatalf("%d messages shipped, %d admitted", got, admitted)
	}
	if err := post(); err != nil {
		t.Fatalf("Post after the drain: %v", err)
	}
}

// TestCloseWithParkedLeaksNothing: closing a link drops what is parked —
// only bytes by then, the references were spent as each message was encoded —
// stops its flusher, and leaves nothing a late repayment could revive.
func TestCloseWithParkedLeaksNothing(t *testing.T) {
	log := &frameLog{wedge: make(chan struct{})}
	l := NewLink(log, LinkConfig{Credits: 1, IsResponse: isACK})
	frame := refbuf.NewPool().Get(16)
	for i := 0; i < 10; i++ {
		frame.Retain()
		if err := l.Post(core.INV{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}, Value: frame.Bytes(), Owner: frame}); err != nil {
			t.Fatal(err)
		}
	}
	if got := frame.Refs(); got != 1 {
		t.Fatalf("frame refs with 9 messages parked = %d, want the baseline 1", got)
	}
	waitFor(t, func() bool { return l.Stats().FramesSent == 1 }) // the flusher is inside Write
	l.Close()
	close(log.wedge)
	waitFor(t, func() bool { return !flusherBusy(l) })
	l.RepayCredits(9)
	frame.Retain()
	if err := l.Post(core.INV{Epoch: 1, Key: 99, Value: frame.Bytes(), Owner: frame}); err != errLinkClosed {
		t.Fatalf("Post on a closed link: %v", err)
	}
	if got := frame.Refs(); got != 1 {
		t.Fatalf("frame refs after Close = %d, want the baseline 1", got)
	}
	if got := log.snapshot(); len(got) != 1 {
		t.Fatalf("%d messages shipped, want only the one in flight at Close: %v", len(got), got)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.parked != nil || l.flushing {
		t.Fatalf("after Close: %d parked bytes kept, flusher running = %v", len(l.parked), l.flushing)
	}
}

// TestParkAndUnparkAllocateNothing: the parked queue is a recycled buffer
// like the other two, so a warm park-then-repay cycle allocates nothing.
func TestParkAndUnparkAllocateNothing(t *testing.T) {
	l := NewLink(sink{}, LinkConfig{Credits: 1, IsResponse: isACK})
	defer l.Close()
	var msg any = inv(1)
	sent := uint64(0)
	cycle := func() {
		for i := 0; i < 2; i++ { // the second one parks
			if err := l.Post(msg); err != nil {
				t.Fatal(err)
			}
		}
		l.RepayCredits(1) // unparks it
		sent += 2
		for l.Stats().MsgsSent < sent || flusherBusy(l) {
			runtime.Gosched()
		}
		l.RepayCredits(1)
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a park-and-repay cycle allocates %.0f times, want 0", n)
	}
	if st := l.Stats(); st.CreditStalls != 2+1+200 {
		t.Fatalf("CreditStalls = %d, want one per cycle (203): the second Post did not park", st.CreditStalls)
	}
}

// wholeFrames checks that every Write it gets is exactly one frame — header
// and body in one piece, the count matching the messages present — and notes
// the largest.
type wholeFrames struct {
	t       *testing.T
	mu      sync.Mutex
	frames  int
	grants  int
	largest int
}

func (w *wholeFrames) Write(p []byte) (int, error) {
	if len(p) < frameHdrLen || int(binary.LittleEndian.Uint32(p)) != len(p)-4 {
		w.t.Errorf("a Write of %d bytes is not one frame (header says %d)", len(p), binary.LittleEndian.Uint32(p))
		return len(p), nil
	}
	count, off, grants := int(binary.LittleEndian.Uint16(p[4:])), frameHdrLen, 0
	for i := 0; i < count; i++ {
		if p[off] == tCredit {
			grants++
		}
		off += 5 + int(binary.LittleEndian.Uint32(p[off+1:]))
	}
	if off != len(p) {
		w.t.Errorf("frame of %d bytes: its %d messages end at %d", len(p), count, off)
	}
	w.mu.Lock()
	w.frames++
	w.grants += grants
	w.largest = max(w.largest, len(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestEveryFrameIsOneWrite: the header is reserved in the send buffer and
// patched at flush, so whatever a frame carries — one small message, a value
// far past the old writev threshold, a grant riding along, a grant alone — it
// reaches the stream as one contiguous Write.
func TestEveryFrameIsOneWrite(t *testing.T) {
	w := &wholeFrames{t: t}
	l := NewLink(w, LinkConfig{Credits: 1024, ExplicitEvery: 1})
	defer l.Close()
	idle := func() {
		t.Helper()
		waitFor(t, func() bool { return !flusherBusy(l) })
	}
	l.onReceive(core.VAL{}) // a grant falls due with nothing queued: a frame of its own
	idle()
	if err := l.Send(ack(1)); err != nil {
		t.Fatal(err)
	}
	idle()
	l.mu.Lock() // hold the flusher off until the grant and the message are both queued
	l.pendingGrant, l.recvSinceCredit = l.cfg.ExplicitEvery, 0
	l.mu.Unlock()
	if err := l.Send(core.INV{Epoch: 1, Key: 2, Value: make(proto.Value, 64<<10)}); err != nil {
		t.Fatal(err)
	}
	idle()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.frames != 3 || w.grants != 2 || w.largest < 64<<10 {
		t.Fatalf("%d frames, %d grants, largest %d bytes; want 3 frames, 2 grants, one frame over 64 KiB", w.frames, w.grants, w.largest)
	}
	if st := l.Stats(); st.ExplicitCreditsSent != 2 || st.PiggybackedGrants != 1 || st.MsgsSent != 2 {
		t.Fatalf("stats %+v; want 2 grants sent, 1 of them piggybacked, 2 messages", st)
	}
}
