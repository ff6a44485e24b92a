package server

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/proto"
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
