package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/wings"
)

// serveGroup stands up a 3-replica sharded group, fronts node 0 with a wire
// server, and returns the listen address plus a teardown.
func serveGroup(t *testing.T, shards int, cfg Config) (addr string, srv *Server, teardown func()) {
	t.Helper()
	l := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, shards)
	cfg.Backend = l.Nodes[0]
	addr, srv = serve(t, cfg)
	return addr, srv, func() {
		srv.Close()
		l.Close()
	}
}

// serve fronts cfg.Backend with a wire server on a loopback port.
func serve(t *testing.T, cfg Config) (addr string, srv *Server) {
	t.Helper()
	srv = New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

// holdingNode serves through a node but holds the completion of every op on
// a key less than below until release: the op still crosses its shard, but
// no response to it is flushed before then, so the session's outstanding
// count can only grow.
type holdingNode struct {
	*cluster.ShardedNode
	below proto.Key

	mu   sync.Mutex
	held []func()
}

func (h *holdingNode) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	return h.ShardedNode.SubmitAsync(op, h.hold(op, fn))
}

func (h *holdingNode) SubmitHeld(op proto.ClientOp, fn func(proto.Completion)) error {
	return h.ShardedNode.SubmitHeld(op, h.hold(op, fn))
}

// hold wraps fn so that op's completion waits for release.
func (h *holdingNode) hold(op proto.ClientOp, fn func(proto.Completion)) func(proto.Completion) {
	if op.Key >= h.below {
		return fn
	}
	return func(c proto.Completion) {
		h.mu.Lock()
		h.held = append(h.held, func() { fn(c) })
		h.mu.Unlock()
	}
}

// release runs the held completions.
func (h *holdingNode) release() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, fn := range held {
		fn()
	}
}

func TestWireRoundTrip(t *testing.T) {
	addr, srv, down := serveGroup(t, 2, Config{})
	defer down()
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := c.Window(); w != DefaultWindow {
		t.Fatalf("granted window %d, want %d", w, DefaultWindow)
	}

	const k = proto.Key(7)
	if err := c.Write(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read(k); err != nil || string(v) != "v1" {
		t.Fatalf("read=%q err=%v", v, err)
	}
	if ok, _, err := c.CAS(k, []byte("v1"), []byte("v2")); err != nil || !ok {
		t.Fatalf("cas swapped=%v err=%v", ok, err)
	}
	if ok, obs, err := c.CAS(k, []byte("v1"), []byte("v3")); err != nil || ok || string(obs) != "v2" {
		t.Fatalf("cas2 swapped=%v obs=%q err=%v", ok, obs, err)
	}
	const ctr = proto.Key(8)
	if err := c.Write(ctr, proto.EncodeInt64(10)); err != nil {
		t.Fatal(err)
	}
	if prior, err := c.FAA(ctr, 5); err != nil || prior != 10 {
		t.Fatalf("faa prior=%d err=%v", prior, err)
	}
	if v, err := c.Read(ctr); err != nil || proto.DecodeInt64(v) != 15 {
		t.Fatalf("counter=%v err=%v", v, err)
	}
	if st := srv.Stats(); st.Reqs == 0 || st.Accepted != 1 || st.Active != 1 {
		t.Fatalf("stats=%+v", st)
	}
	// A second read of a Valid key must take the lock-free path.
	before := srv.Stats().FastReads
	if _, err := c.Read(k); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().FastReads <= before {
		t.Fatal("valid-key read did not take the fast path")
	}
}

// TestPipelinedDo keeps the whole window in flight from one goroutine.
func TestPipelinedDo(t *testing.T) {
	addr, _, down := serveGroup(t, 2, Config{})
	defer down()
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2000
	if err := c.Write(proto.Key(1), []byte("seed")); err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	errs := make(chan error, 1)
	for i := 0; i < n; i++ {
		op, key := proto.OpRead, proto.Key(1)
		var val proto.Value
		if i%4 == 0 {
			op, key, val = proto.OpWrite, proto.Key(i%16), []byte("x")
		}
		err := c.Do(op, key, val, nil, func(r proto.ClientResp, err error) {
			if err == nil && r.Status != proto.OK {
				err = client.ErrNotOperational
			}
			if err != nil {
				select {
				case errs <- err:
				default:
				}
			}
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for done.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d responses", done.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestBadHandshakeRejected(t *testing.T) {
	addr, srv, down := serveGroup(t, 1, Config{})
	defer down()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("junk"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err != io.EOF {
		t.Fatalf("want EOF after bad magic, got %v", err)
	}
	if st := srv.Stats(); st.Reqs != 0 {
		t.Fatalf("rejected session served requests: %+v", st)
	}
}

// rawSession handshakes by hand and returns the conn plus granted window.
func rawSession(t *testing.T, addr string) (net.Conn, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wings.ClientMagic[:]); err != nil {
		t.Fatal(err)
	}
	var reply [8]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatal(err)
	}
	return conn, int(binary.LittleEndian.Uint32(reply[4:]))
}

// TestNonClientMessageKillsSession: anything but a request on a client
// session — a mesh protocol message, a response — is a protocol violation,
// not traffic to route.
func TestNonClientMessageKillsSession(t *testing.T) {
	addr, _, down := serveGroup(t, 1, Config{})
	defer down()
	for name, msg := range map[string]any{
		"mesh message": proto.MUpdate{View: proto.View{Epoch: 9}},
		"response":     proto.ClientResp{Seq: 1, Status: proto.OK},
	} {
		conn, _ := rawSession(t, addr)
		frame, err := wings.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [1]byte
		if _, err := conn.Read(b[:]); err == nil {
			t.Fatalf("session survived sending a %s", name)
		}
		conn.Close()
	}
}

// TestBlasterKilled: a session that pipelines past MaxInflight without
// reading responses is killed at the bound; a concurrent compliant session
// is unaffected. This is the admission-control regression test: a
// credit-exhausted, unread session must not stall other sessions or the
// shard event loops. The blaster's completions are held until teardown, so
// none of its responses can be flushed into the kernel's socket buffers and
// its outstanding count passes 64 at request 65 whatever the scheduling.
func TestBlasterKilled(t *testing.T) {
	const blastOps = 200
	l := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 2)
	defer l.Close()
	node := &holdingNode{ShardedNode: l.Nodes[0], below: blastOps}
	defer node.release()
	addr, srv := serve(t, Config{Backend: node, Window: 8, MaxInflight: 64})
	defer srv.Close()

	blaster, _ := rawSession(t, addr)
	defer blaster.Close()
	// Blast far past MaxInflight without ever reading. Writes (not reads) so
	// every one crosses a shard event loop. The server must cut the
	// connection; the write eventually fails once TCP buffers the kill.
	var buf []byte
	for i := 0; i < blastOps; i++ {
		var err error
		buf, err = wings.AppendFrame(buf[:0], proto.ClientReq{
			Seq: uint64(i + 1), Op: proto.OpWrite, Key: proto.Key(i), Value: []byte("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
		blaster.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := blaster.Write(buf); err != nil {
			break // killed mid-blast: exactly what we want
		}
	}
	// The kill surfaces as the end of the stream or a reset. A read that
	// times out means the session is still open.
	blaster.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		_, err := blaster.Read(make([]byte, 1<<16))
		if err == nil {
			continue
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blaster session not killed: %v; %+v", err, srv.Stats())
		}
		break
	}

	// The compliant session proceeds at full function while (and after) the
	// blaster is being shot.
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(proto.Key(1000), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read(proto.Key(1000)); err != nil || string(v) != "ok" {
		t.Fatalf("read=%q err=%v", v, err)
	}
	if st := srv.Stats(); st.Killed == 0 {
		t.Fatalf("blaster not recorded as killed: %+v", st)
	}
}

// TestStalledReaderDoesNotBlockOthers: a session that stops reading (but
// stays under MaxInflight, so it is never killed) wedges only its own
// flusher. Other sessions and the shard event loops keep serving.
func TestStalledReaderDoesNotBlockOthers(t *testing.T) {
	addr, _, down := serveGroup(t, 2, Config{Window: 8, MaxInflight: 64})
	defer down()

	stalled, _ := rawSession(t, addr)
	defer stalled.Close()
	// Submit under the bound, never read a byte: responses queue server-side
	// behind a flusher wedged on this socket.
	var buf []byte
	for i := 0; i < 32; i++ {
		var err error
		buf, err = wings.AppendFrame(buf[:0], proto.ClientReq{
			Seq: uint64(i + 1), Op: proto.OpWrite, Key: proto.Key(i), Value: []byte("stall"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stalled.Write(buf); err != nil {
			t.Fatalf("stalled session killed prematurely: %v", err)
		}
	}

	// Every shard still serves a healthy session promptly, touching the same
	// keys the stalled session wrote (same shards, same event loops).
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < 32; i++ {
		if err := c.Write(proto.Key(i), []byte("live")); err != nil {
			t.Fatal(err)
		}
		// The stalled session's writes are unacknowledged, hence concurrent
		// with this one: the server may apply "stall" after "live" commits.
		if v, err := c.Read(proto.Key(i)); err != nil || (string(v) != "live" && string(v) != "stall") {
			t.Fatalf("read=%q err=%v", v, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("healthy session crawled (%v) behind a stalled one", d)
	}
}

// TestClientReconnect: after the server restarts, the next op on an existing
// client lazily redials instead of failing forever.
func TestClientReconnect(t *testing.T) {
	l := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 2)
	defer l.Close()
	srv := New(Config{Backend: l.Nodes[0]})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(proto.Key(1), []byte("pre")); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// The in-flight-free client notices on its next op; it may fail once
	// while the pump races the close.
	srv2 := New(Config{Backend: l.Nodes[0]})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Read(proto.Key(1))
		if err == nil {
			if string(v) != "pre" {
				t.Fatalf("read=%q after reconnect", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
