// Package server is the wire-native client serving layer: it multiplexes
// thousands of pipelined client sessions onto a node's W shard engines
// without reintroducing the per-node serialization point the sharded engine
// removed (paper §4.1; the partitioned client-session front ends of FaRM and
// ScaleStore follow the same shape).
//
// Each accepted connection becomes one session with one read-pump goroutine.
// Requests route straight to the owning shard via proto.ShardOf: reads are
// served lock-free ON THE SESSION GOROUTINE through the backend's ReadLocal
// fast path — a wire read that hits a Valid key never touches any event
// loop — and writes/RMWs (plus reads that miss the fast path) are submitted
// asynchronously to the shard engine, whose completion callback enqueues the
// response. A backend that can hold submitted ops (HeldSubmitter) has a
// request frame's ops queued without a wake-up and run at the frame's end,
// one burst per shard on the session goroutine. Responses fan back per
// session through an opportunistic coalescer: whatever completions accumulate
// while a flush is in flight ship as one frame (the per-peer egress batching
// of the sharded engine, applied per session).
//
// Admission control bounds server memory per session without any shared
// lock: a session's outstanding count — requests received minus responses
// flushed to the socket — may never exceed MaxInflight. A compliant client
// respects the window granted at handshake (Window < MaxInflight) and is
// never touched; a client that blasts past the window, or stops reading
// responses while continuing to send (so TCP backpressure wedges the
// session's flusher and the response queue grows), is killed at the bound.
// Either way the damage stays on that session: its pump and flusher block or
// die, while other sessions and every shard event loop proceed — completion
// callbacks into a dead or wedged session enqueue-and-return (or drop),
// never block.
package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/wings"
)

// Backend is the op-serving surface a session needs from the node: the
// lock-free local-read fast path and asynchronous submission to the owning
// shard. cluster.ShardedNode satisfies it.
type Backend interface {
	// ReadLocal attempts the §4.1 lock-free read on the caller's goroutine;
	// ok=false means fall back to SubmitAsync.
	ReadLocal(key proto.Key) (proto.Value, bool)
	// SubmitAsync hands op to the owning shard; fn runs with the completion
	// on whichever goroutine runs the turn that completes it, and must not
	// block.
	SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error
}

// HeldSubmitter is the batched upgrade of Backend.SubmitAsync, detected by
// type assertion at New: a session submits each op of a request frame with
// SubmitHeld, which queues it on its shard without waking anything, and
// calls RunHeld once the frame's last request is handled, which runs every
// shard's queue on the session goroutine. SubmitHeld's contract is
// SubmitAsync's otherwise. cluster.ShardedNode implements it.
type HeldSubmitter interface {
	SubmitHeld(op proto.ClientOp, fn func(proto.Completion)) error
	RunHeld()
}

// RetainedReader is the zero-copy upgrade of Backend.ReadLocal, detected by
// type assertion at New: a fast read returns the store's value pinned (a
// non-nil owner holds one reference on the pooled frame buffer the value
// aliases) instead of ReadLocal's defensive copy. The serving layer keeps
// the pin across the response coalescer and releases it once the flusher has
// encoded the bytes into the outgoing frame — the fix for the response-value
// escape, where a queued response's value could be recycled (and its bytes
// rewritten by an unrelated inbound frame) between enqueue and encode.
// cluster.ShardedNode implements it.
type RetainedReader interface {
	ReadLocalRetained(key proto.Key) (proto.Value, *refbuf.Buf, bool)
}

// IntoReader is the read-into door, preferred over RetainedReader when the
// backend has it: a fast read of a value of at most kvs.InlineCap bytes is
// copied into the session's buffer (n bytes, v nil), pinning and allocating
// nothing, and the response carries those bytes inline to the flusher. A
// larger value comes back as RetainedReader returns it. cluster.ShardedNode
// implements it.
type IntoReader interface {
	ReadLocalInto(key proto.Key, buf *[kvs.InlineCap]byte) (n int, v proto.Value, owner *refbuf.Buf, ok bool)
}

// Prefetcher is the backend's store prefetch, detected by type assertion at
// New: a session hands it the keys of each request frame before it handles
// the frame's first request, so the frame's store misses overlap instead of
// being paid one request at a time. cluster.ShardedNode implements it.
type Prefetcher interface {
	Prefetch(keys []proto.Key)
}

// DefaultWindow is the pipelining window granted to clients at handshake.
const DefaultWindow = 256

// DefaultMaxInflight is the per-session outstanding-request bound that kills
// a session exceeding it. It must be comfortably above the granted window so
// a compliant client can never trip it, yet small enough that a hostile
// blaster's response queue stays bounded.
const DefaultMaxInflight = 1024

// Config parameterizes a Server.
type Config struct {
	Backend Backend
	// Window is the pipelining window granted to clients (default
	// DefaultWindow). Must be < MaxInflight.
	Window int
	// MaxInflight kills any session whose outstanding count (requests
	// received − responses flushed) exceeds it (default DefaultMaxInflight).
	MaxInflight int
}

// Server accepts and serves client sessions. One Server fronts one node
// (plain or sharded); construct with New, drive with Serve, stop with Close.
type Server struct {
	cfg Config
	// ir, rr, pf and hs are cfg.Backend's IntoReader, RetainedReader,
	// Prefetcher and HeldSubmitter upgrades, nil when the backend lacks them
	// (test fakes, third-party backends, wrappers that only pass
	// RetainedReader on).
	ir IntoReader
	rr RetainedReader
	pf Prefetcher
	hs HeldSubmitter

	mu       sync.Mutex
	lns      []net.Listener
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	accepted  atomic.Uint64
	killed    atomic.Uint64
	reqs      atomic.Uint64
	fastReads atomic.Uint64
}

// New builds a Server over cfg.Backend.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: nil backend")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxInflight <= cfg.Window {
		cfg.MaxInflight = cfg.Window * 4
	}
	ir, _ := cfg.Backend.(IntoReader)
	rr, _ := cfg.Backend.(RetainedReader)
	pf, _ := cfg.Backend.(Prefetcher)
	hs, _ := cfg.Backend.(HeldSubmitter)
	return &Server{cfg: cfg, ir: ir, rr: rr, pf: pf, hs: hs, sessions: make(map[*session]struct{})}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts sessions on ln until Close (or a listener error) and blocks
// while doing so; run it on its own goroutine. Multiple concurrent Serve
// calls on different listeners are allowed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.accepted.Add(1)
		sess := &session{srv: s, conn: conn}
		sess.flush = sess.flushLoop
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sess.run()
	}
}

// Close stops accepting, closes every live session's connection, and waits
// for their pumps to exit. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lns := s.lns
	var sess []*session
	for se := range s.sessions {
		sess = append(sess, se)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, se := range sess {
		se.kill()
	}
	s.wg.Wait()
	return nil
}

// Stats is a snapshot of the server's session counters.
type Stats struct {
	Accepted, Active, Killed uint64
	// Reqs counts requests admitted; FastReads the subset answered by the
	// lock-free ReadLocal path on the session goroutine.
	Reqs, FastReads uint64
}

// Stats reports live counters; safe mid-traffic.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := uint64(len(s.sessions))
	s.mu.Unlock()
	return Stats{
		Accepted:  s.accepted.Load(),
		Active:    active,
		Killed:    s.killed.Load(),
		Reqs:      s.reqs.Load(),
		FastReads: s.fastReads.Load(),
	}
}

// session is one client connection: a read pump (run), an outstanding
// counter for admission, and a response coalescer (enqueue/flushLoop).
type session struct {
	srv  *Server
	conn net.Conn

	// outstanding = requests received − responses flushed to the socket; the
	// pump kills the session when it exceeds MaxInflight. Also bounds the
	// response queue: every queued response is an outstanding request.
	outstanding atomic.Int64

	mu       sync.Mutex
	queue    []queuedResp
	flushing bool
	dead     bool
	// spare is the other half of the response double buffer: the flusher
	// swaps it in for queue when it takes a batch and hands the flushed
	// slice back once the frame is written. Nil while out with the flusher.
	spare []queuedResp
	// flush is flushLoop bound once, so starting the flusher does not
	// allocate the closure a `go se.flushLoop()` statement would.
	flush func()

	// The flusher's encode scratch. It belongs to the session, not to one
	// flusher goroutine's stack, so it is still warm after an idle gap (each
	// burst starts a new goroutine); the flushing flag admits one flusher at
	// a time, and each start is ordered after the last exit by mu.
	resps []proto.ClientResp
	frame []byte

	// rbuf is the read-into door's buffer; the session goroutine copies each
	// fast read out of it before the next. It lives in the session because a
	// queued response's own array, passed through the interface call, would
	// escape to the heap on every read.
	rbuf [kvs.InlineCap]byte
}

// Retained-capacity caps for a session's queue halves, response scratch and
// frame buffer: a session that once flushed a deep or large-valued burst
// does not keep that memory while idle (there may be thousands of sessions).
const (
	maxSpareResps = 128
	maxSpareFrame = 32 << 10
)

// queuedResp is one response awaiting flush. A non-nil owner pins the pooled
// frame buffer resp.Value aliases (the zero-copy fast-read path); the
// session releases it after the flusher encodes the bytes — or on any drop
// path (dead enqueue, kill) that means the bytes will never be encoded. A
// nil resp.Value means the value is inline[:n]: a small fast read carries
// its bytes in the queue itself.
type queuedResp struct {
	resp   proto.ClientResp
	owner  *refbuf.Buf
	inline [kvs.InlineCap]byte
	n      uint8
}

// errTooManyInflight kills a session that exceeded its outstanding bound.
var errTooManyInflight = errors.New("server: session exceeded inflight bound")

func (se *session) run() {
	defer se.srv.wg.Done()
	defer se.finish()
	if !se.handshake() {
		return
	}
	var prefetch func([]proto.Key)
	if pf := se.srv.pf; pf != nil {
		prefetch = pf.Prefetch
	}
	var runHeld func()
	if hs := se.srv.hs; hs != nil {
		runHeld = hs.RunHeld
	}
	// Protocol violations (bad frames, anything but a request, the inflight
	// bound) are terminal here; only the last is counted. The frame's held
	// ops run at its end either way.
	if err := wings.ServeClientReqs(se.conn, prefetch, se.handle, runHeld); errors.Is(err, errTooManyInflight) {
		se.srv.killed.Add(1)
	}
}

// handshake validates the client magic and grants the pipelining window.
func (se *session) handshake() bool {
	var magic [4]byte
	if _, err := io.ReadFull(se.conn, magic[:]); err != nil || magic != wings.ClientMagic {
		return false
	}
	var reply [8]byte
	copy(reply[:], wings.ClientMagic[:])
	w := se.srv.cfg.Window
	reply[4] = byte(w)
	reply[5] = byte(w >> 8)
	reply[6] = byte(w >> 16)
	reply[7] = byte(w >> 24)
	_, err := se.conn.Write(reply[:])
	return err == nil
}

// handle processes one decoded request on the session goroutine. Returning
// an error aborts the stream (ServeClientReqs stops; finish closes the conn).
// *req is the serve loop's, valid until handle returns; its value bytes are a
// private copy and are handed on.
func (se *session) handle(req *proto.ClientReq) error {
	if se.outstanding.Add(1) > int64(se.srv.cfg.MaxInflight) {
		return errTooManyInflight
	}
	se.srv.reqs.Add(1)
	if req.Op == proto.OpRead {
		if ir := se.srv.ir; ir != nil {
			if n, v, owner, ok := ir.ReadLocalInto(req.Key, &se.rbuf); ok {
				se.srv.fastReads.Add(1)
				qr := queuedResp{resp: proto.ClientResp{Seq: req.Seq, Status: proto.OK, Value: v}, owner: owner, n: uint8(n)}
				copy(qr.inline[:], se.rbuf[:n])
				se.enqueue(qr)
				return nil
			}
		} else if rr := se.srv.rr; rr != nil {
			if v, owner, ok := rr.ReadLocalRetained(req.Key); ok {
				se.srv.fastReads.Add(1)
				se.enqueue(queuedResp{resp: proto.ClientResp{Seq: req.Seq, Status: proto.OK, Value: v}, owner: owner})
				return nil
			}
		} else if v, ok := se.srv.cfg.Backend.ReadLocal(req.Key); ok {
			se.srv.fastReads.Add(1)
			se.enqueue(queuedResp{resp: proto.ClientResp{Seq: req.Seq, Status: proto.OK, Value: v}})
			return nil
		}
	}
	seq := req.Seq
	op := proto.ClientOp{Kind: req.Op, Key: req.Key, Value: req.Value, Expected: req.Expected}
	done := func(c proto.Completion) {
		// Engine-turn context — a session, the shard's event loop or a
		// transport goroutine: enqueue-and-return, never block.
		// Completion values are safeVal'd by the engine — no owner to carry.
		se.enqueue(queuedResp{resp: proto.ClientResp{Seq: seq, Status: c.Status, Value: c.Value}})
	}
	var err error
	if hs := se.srv.hs; hs != nil {
		err = hs.SubmitHeld(op, done) // run at the frame's end (RunHeld)
	} else {
		err = se.srv.cfg.Backend.SubmitAsync(op, done)
	}
	if err != nil {
		// Node shutting down: tell the client to retry elsewhere rather than
		// cutting the stream mid-pipeline.
		se.enqueue(queuedResp{resp: proto.ClientResp{Seq: seq, Status: proto.NotOperational}})
	}
	return nil
}

// enqueue queues one response and kicks the flusher. Called from the session
// goroutine (inline reads) and from engine turns (completions) on any
// goroutine that runs them — a session's, a shard's event loop, a transport
// pump; never blocks beyond the queue mutex.
func (se *session) enqueue(qr queuedResp) {
	se.mu.Lock()
	if se.dead {
		se.mu.Unlock()
		// The response will never be encoded: spend its pin here.
		if qr.owner != nil {
			qr.owner.Release()
		}
		return
	}
	se.queue = append(se.queue, qr)
	if !se.flushing {
		se.flushing = true
		go se.flush()
	}
	se.mu.Unlock()
}

// flushLoop drains the response queue into coalesced frames. Opportunistic
// batching exactly like the wings link flusher: while a socket write is in
// flight, completions pile into queue and ship together. A stalled reader
// blocks only this goroutine — the pump keeps counting outstanding and kills
// the session at the bound.
func (se *session) flushLoop() {
	// flushed is the queue half the previous iteration wrote out, handed back
	// as the spare under the lock this iteration takes anyway.
	var flushed []queuedResp
	for {
		se.mu.Lock()
		if flushed != nil && cap(flushed) <= maxSpareResps {
			se.spare = flushed[:0]
		}
		flushed = nil
		if len(se.queue) == 0 || se.dead {
			se.flushing = false
			se.mu.Unlock()
			return
		}
		batch := se.queue
		recycle := true
		if len(batch) > wings.MaxFrameMsgs {
			batch = batch[:wings.MaxFrameMsgs]
			se.queue = se.queue[wings.MaxFrameMsgs:]
			recycle = false // the queued tail shares batch's array
		} else {
			se.queue, se.spare = se.spare, nil
		}
		se.mu.Unlock()

		resps := se.resps[:0]
		for i := range batch {
			r := batch[i].resp
			if r.Value == nil {
				r.Value = batch[i].inline[:batch[i].n]
			}
			resps = append(resps, r)
		}
		// Monomorphic encode: no per-response interface boxing, so a flush
		// with warm scratch buffers allocates nothing.
		frame, err := wings.AppendClientResps(se.frame[:0], resps)
		// The frame holds private copies of every value now; the pinned
		// buffers' last use is behind us either way (on the error path the
		// bytes will never be encoded at all). Clearing drops the scratch's
		// references to the values along with the pins.
		releaseBatch(batch)
		clear(batch)
		clear(resps)
		if cap(resps) <= maxSpareResps {
			se.resps = resps
		}
		if err != nil {
			se.kill()
			return
		}
		if cap(frame) <= maxSpareFrame {
			se.frame = frame
		}
		if _, err := se.conn.Write(frame); err != nil {
			se.kill()
			return
		}
		se.outstanding.Add(-int64(len(batch)))
		if recycle {
			flushed = batch
		}
	}
}

// releaseBatch spends the frame-buffer pins of a drained queue segment.
func releaseBatch(batch []queuedResp) {
	for i := range batch {
		if batch[i].owner != nil {
			batch[i].owner.Release()
		}
	}
}

// kill marks the session dead and closes its connection, unblocking both the
// pump (read error) and the flusher (write error). Idempotent.
func (se *session) kill() {
	se.mu.Lock()
	already := se.dead
	se.dead = true
	q := se.queue
	se.queue = nil
	se.mu.Unlock()
	// Queued responses die with the session; their pins must not.
	releaseBatch(q)
	if !already {
		se.conn.Close()
	}
}

// finish tears the session down after the pump exits.
func (se *session) finish() {
	se.kill()
	se.srv.mu.Lock()
	delete(se.srv.sessions, se)
	se.srv.mu.Unlock()
}
