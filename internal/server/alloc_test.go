package server

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// discardConn is a net.Conn whose writes succeed and vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestSessionFlushAllocatesNothingAcrossIdleGaps: queueing 16 responses and
// flushing them allocates nothing once the first bursts have sized the
// buffers. Each run waits for the flusher to exit, so every burst starts a
// new flusher goroutine — the encode scratch belongs to the session, not to
// one flusher's stack, and must still be warm after the idle gap.
func TestSessionFlushAllocatesNothingAcrossIdleGaps(t *testing.T) {
	se := &session{srv: New(Config{Backend: nullBackend{}}), conn: discardConn{}}
	se.flush = se.flushLoop
	val := make(proto.Value, 32)
	idle := func() bool {
		se.mu.Lock()
		defer se.mu.Unlock()
		return !se.flushing
	}
	burst := func() {
		se.outstanding.Add(16)
		for i := 0; i < 16; i++ {
			se.enqueue(queuedResp{resp: proto.ClientResp{Seq: uint64(i), Status: proto.OK, Value: val}})
		}
		for se.outstanding.Load() != 0 || !idle() {
			runtime.Gosched()
		}
	}
	burst() // sizes the first queue half, the scratch and the frame
	burst() // brings that half back as the spare
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Fatalf("enqueue + flush of 16 responses allocates %.0f times, want 0", n)
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	for _, half := range [][]queuedResp{se.queue, se.spare} {
		for i, qr := range half[:cap(half)] {
			if qr.resp.Value != nil {
				t.Fatalf("recycled queue entry %d still references a flushed value", i)
			}
		}
	}
	for i, r := range se.resps[:cap(se.resps)] {
		if r.Value != nil {
			t.Fatalf("response scratch entry %d still references a flushed value", i)
		}
	}
}

type nullBackend struct{}

func (nullBackend) ReadLocal(proto.Key) (proto.Value, bool) { return nil, false }
func (nullBackend) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	fn(proto.Completion{Kind: op.Kind, Key: op.Key, Status: proto.OK})
	return nil
}

// pinnedBackend is a RetainedReader whose every read hits one owner-backed
// 32 B entry — the store's answer for a Valid key whose value arrived over
// the wire.
type pinnedBackend struct {
	nullBackend
	entry *refbuf.Buf
}

func (b pinnedBackend) ReadLocalRetained(proto.Key) (proto.Value, *refbuf.Buf, bool) {
	b.entry.Retain()
	return b.entry.Bytes(), b.entry, true
}

// inlineBackend is an IntoReader whose every read hits one 32 B inline
// value — the store's answer for a Valid key of a 32 B workload.
type inlineBackend struct{ nullBackend }

func (inlineBackend) ReadLocalInto(_ proto.Key, buf *[kvs.InlineCap]byte) (int, proto.Value, *refbuf.Buf, bool) {
	for i := range buf {
		buf[i] = byte(i)
	}
	return kvs.InlineCap, nil, nil, true
}

// wireReader is one client session to a server over loopback TCP, reading
// through the whole wire path: client.Do → typed request door → socket →
// session → read-into or retained read → response flush → socket → client
// pump → callback.
type wireReader struct {
	c            *client.Client
	issued, done atomic.Int64
	bad          atomic.Value // the first wrong answer, described
	cb           func(proto.ClientResp, error)
}

const wireReaderWindow = 64

func newWireReader(tb testing.TB, be Backend) *wireReader {
	tb.Helper()
	// A window under maxSpareResps, so that a full-window burst does not grow
	// the session's queue halves past what it keeps: every byte counted is
	// then a read's own.
	srv := New(Config{Backend: be, Window: wireReaderWindow})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String(), client.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close(); srv.Close() })
	w := &wireReader{c: c}
	w.cb = func(r proto.ClientResp, err error) {
		if err != nil || r.Status != proto.OK || len(r.Value) != 32 {
			w.bad.CompareAndSwap(nil, fmt.Sprintf("read answered %v with %d B, err %v", r.Status, len(r.Value), err))
		}
		w.done.Add(1)
	}
	return w
}

// read pipelines n reads from the calling goroutine: Do blocks only while the
// window is spent, so the window stays full.
func (w *wireReader) read(tb testing.TB, n int) {
	for i := 0; i < n; i++ {
		if err := w.c.Do(proto.OpRead, 7, nil, nil, w.cb); err != nil {
			tb.Fatal(err)
		}
	}
	w.issued.Add(int64(n))
}

// drain waits for every read issued to be answered, and reports a wrong one.
func (w *wireReader) drain(tb testing.TB) {
	for w.done.Load() != w.issued.Load() {
		runtime.Gosched()
	}
	if bad := w.bad.Load(); bad != nil {
		tb.Fatal(bad)
	}
}

// TestWireReadAllocatesOnce: a pipelined read allocates once from end to end,
// both processes' sides counted — the value the client hands its caller. The
// request is encoded from Do's stack, decoded into the session loop's own,
// answered through recycled queue halves and frames — from a slot's inline
// copy carried in the queue (the read-into door), or from a pinned store
// entry (a RetainedReader backend) — and decoded into the client pump's own.
// (With a box at Link.Send, a box at each decode it was four.)
func TestWireReadAllocatesOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		be   Backend
	}{
		{"read-into", inlineBackend{}},
		{"retained", pinnedBackend{entry: refbuf.NewPool().Get(32)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWireReader(t, tc.be)
			w.read(t, 4*wireReaderWindow) // size every buffer on the way
			w.drain(t)
			const batch = 200
			perBatch := testing.AllocsPerRun(50, func() { w.read(t, batch) })
			w.drain(t)
			// Slack for what is per burst, not per read: a collection
			// emptying the frame pool, a goroutine descriptor when both
			// flushers start at once.
			if perRead := perBatch / batch; perRead > 1.1 {
				t.Fatalf("a wire read allocates %.2f times, want 1 (the returned value)", perRead)
			}
		})
	}
}

// prefetchBackend is inlineBackend with the Prefetcher upgrade; it counts
// the keys it is handed.
type prefetchBackend struct {
	inlineBackend
	keys *atomic.Int64
}

func (b prefetchBackend) Prefetch(keys []proto.Key) { b.keys.Add(int64(len(keys))) }

// TestPrefetchingSessionReadAllocatesOnce: a backend with the Prefetcher
// upgrade is handed every request's key, and the frame scan that collects
// them adds nothing to a wire read's one allocation.
func TestPrefetchingSessionReadAllocatesOnce(t *testing.T) {
	be := prefetchBackend{keys: new(atomic.Int64)}
	w := newWireReader(t, be)
	w.read(t, 4*wireReaderWindow)
	w.drain(t)
	const batch = 200
	perBatch := testing.AllocsPerRun(50, func() { w.read(t, batch) })
	w.drain(t)
	if perRead := perBatch / batch; perRead > 1.1 {
		t.Fatalf("a wire read allocates %.2f times, want 1 (the returned value)", perRead)
	}
	if got, want := be.keys.Load(), w.issued.Load(); got != want {
		t.Fatalf("the backend was handed %d keys for %d requests", got, want)
	}
}

// BenchmarkWireRead is the same path timed, through the read-into door: run
// it with -benchmem while changing anything a read crosses.
func BenchmarkWireRead(b *testing.B) {
	w := newWireReader(b, inlineBackend{})
	w.read(b, 4*wireReaderWindow)
	w.drain(b)
	b.ReportAllocs()
	b.ResetTimer()
	w.read(b, b.N)
	w.drain(b)
}
