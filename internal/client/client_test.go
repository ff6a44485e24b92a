package client

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wings"
)

// fakeServer speaks just enough of the wire protocol to exercise the client
// alone: handshake with a configurable magic/window reply, then an echo loop
// answering every request with OK and the request's own value. It keeps the
// client package's tests free of the full serving stack (internal/server has
// the end-to-end suites).
type fakeServer struct {
	ln     net.Listener
	magic  [4]byte
	window uint32
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
	// accepted counts connections taken, gone those whose serve loop has
	// returned (the client hung up, or the session broke).
	accepted, gone atomic.Int32
	// hostile, when set, is written verbatim in place of the answer to any
	// request whose key is hostileKey.
	hostile atomic.Pointer[[]byte]
}

const hostileKey = proto.Key(0xBAD)

func newFakeServer(t *testing.T, magic [4]byte, window uint32) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fs := &fakeServer{ln: ln, magic: magic, window: window}
	fs.wg.Add(1)
	go fs.accept()
	t.Cleanup(func() {
		ln.Close()
		// Hang up on whatever a failing client still holds open, so a red
		// test ends instead of waiting on its serve loops.
		fs.mu.Lock()
		for _, conn := range fs.conns {
			conn.Close()
		}
		fs.mu.Unlock()
		fs.wg.Wait()
	})
	return fs
}

func (fs *fakeServer) accept() {
	defer fs.wg.Done()
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.accepted.Add(1)
		fs.mu.Lock()
		fs.conns = append(fs.conns, conn)
		fs.mu.Unlock()
		fs.wg.Add(1)
		go fs.serve(conn)
	}
}

func (fs *fakeServer) serve(conn net.Conn) {
	defer fs.wg.Done()
	defer fs.gone.Add(1)
	defer conn.Close()
	var clientMagic [4]byte
	if _, err := readFull(conn, clientMagic[:]); err != nil {
		return
	}
	var reply [8]byte
	copy(reply[:4], fs.magic[:])
	binary.LittleEndian.PutUint32(reply[4:], fs.window)
	if _, err := conn.Write(reply[:]); err != nil {
		return
	}
	wings.ServeClientReqs(conn, nil, func(req *proto.ClientReq) error {
		if hostile := fs.hostile.Load(); hostile != nil && req.Key == hostileKey {
			_, err := conn.Write(*hostile)
			return err
		}
		buf, err := wings.AppendFrame(nil, proto.ClientResp{
			Seq: req.Seq, Status: proto.OK, Value: req.Value,
		})
		if err != nil {
			return err
		}
		_, err = conn.Write(buf)
		return err
	}, nil)
}

func readFull(conn net.Conn, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := conn.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestDialHandshakeAndWindow(t *testing.T) {
	fs := newFakeServer(t, wings.ClientMagic, 64)
	c, err := Dial(fs.ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if c.Window() != 64 {
		t.Fatalf("window = %d, want 64", c.Window())
	}
}

func TestDialRejectsBadMagic(t *testing.T) {
	fs := newFakeServer(t, [4]byte{'n', 'o', 'p', 'e'}, 64)
	if _, err := Dial(fs.ln.Addr().String(), Config{}); err == nil {
		t.Fatal("dial accepted a server speaking the wrong protocol")
	}
}

func TestDialRejectsAbsurdWindow(t *testing.T) {
	for _, w := range []uint32{0, 1 << 21} {
		fs := newFakeServer(t, wings.ClientMagic, w)
		if _, err := Dial(fs.ln.Addr().String(), Config{}); err == nil {
			t.Fatalf("dial accepted window %d", w)
		}
	}
}

func TestDialRefusedAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	if _, err := Dial(addr, Config{}); err == nil {
		t.Fatal("dial succeeded against a dead address")
	}
}

// TestPipelinedEcho drives the callback API well past the granted window
// from several goroutines; every response must carry its request's value
// (sequence correlation) and every callback must fire exactly once.
func TestPipelinedEcho(t *testing.T) {
	fs := newFakeServer(t, wings.ClientMagic, 8)
	c, err := Dial(fs.ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			done := make(chan struct{}, each)
			for i := 0; i < each; i++ {
				want := proto.EncodeInt64(int64(g)<<32 | int64(i))
				err := c.Do(proto.OpWrite, proto.Key(i), want, nil, func(resp proto.ClientResp, err error) {
					if err != nil {
						t.Errorf("g%d op %d: %v", g, i, err)
					} else if string(resp.Value) != string(want) {
						t.Errorf("g%d op %d: echoed %x, want %x", g, i, resp.Value, want)
					}
					done <- struct{}{}
				})
				if err != nil {
					t.Errorf("g%d send %d: %v", g, i, err)
					done <- struct{}{}
				}
			}
			for i := 0; i < each; i++ {
				<-done
			}
		}(g)
	}
	wg.Wait()
}

func TestOpsAfterCloseFail(t *testing.T) {
	fs := newFakeServer(t, wings.ClientMagic, 8)
	c, err := Dial(fs.ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Close()
	if _, err := c.Read(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
	if err := c.Do(proto.OpRead, 1, nil, nil, func(proto.ClientResp, error) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("do after close: %v, want ErrClosed", err)
	}
}

// TestServerDeathStrandsWaiters kills the server mid-pipeline: every blocking
// call and every Do callback in flight hears ErrClosed, exactly once.
func TestServerDeathStrandsWaiters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	kill := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var m [4]byte
		readFull(conn, m[:])
		var reply [8]byte
		copy(reply[:4], wings.ClientMagic[:])
		binary.LittleEndian.PutUint32(reply[4:], 8)
		conn.Write(reply[:])
		// Swallow requests without answering, then die.
		go io.Copy(io.Discard, conn)
		<-kill
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const async, blocking = 4, 3
	var calls [async]atomic.Int32
	cbErrs := make(chan error, 2*async)
	for i := range calls {
		i := i
		if err := c.Do(proto.OpWrite, proto.Key(i), proto.Value("v"), nil, func(_ proto.ClientResp, err error) {
			calls[i].Add(1)
			cbErrs <- err
		}); err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	callErrs := make(chan error, blocking)
	for i := 0; i < blocking; i++ {
		go func(key proto.Key) {
			_, err := c.Read(key)
			callErrs <- err
		}(proto.Key(100 + i))
	}
	for inFlight := 0; inFlight < async+blocking; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		inFlight = len(c.pending)
		c.mu.Unlock()
	}
	close(kill)
	for i := 0; i < blocking; i++ {
		if err := <-callErrs; !errors.Is(err, ErrClosed) {
			t.Errorf("blocking call against dying server: %v, want ErrClosed", err)
		}
	}
	for i := 0; i < async; i++ {
		if err := <-cbErrs; !errors.Is(err, ErrClosed) {
			t.Errorf("Do callback against dying server: %v, want ErrClosed", err)
		}
	}
	c.Close() // the pump is gone: nothing can call back any more
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("Do %d: callback ran %d times, want 1", i, n)
		}
	}
}

// TestReconnectStormIsSingleFlight: Dos that all find the session dead each
// dial, but the client keeps exactly one of the connections and hangs up the
// rest itself — so Close, which can only close the published connection and
// then waits for every pump, returns. (When every racer published its own,
// the overwritten pumps sat in Read on sockets nobody would ever close.)
func TestReconnectStormIsSingleFlight(t *testing.T) {
	fs := newFakeServer(t, wings.ClientMagic, 8)
	c, err := Dial(fs.ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Cut the connection under the client and wait for the pump to notice.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	for dead := false; !dead; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		dead = c.conn == nil
		c.mu.Unlock()
	}

	const storm = 8
	start := make(chan struct{})
	errs := make(chan error, storm)
	for i := 0; i < storm; i++ {
		go func(key proto.Key) {
			<-start
			errs <- c.Write(key, proto.Value("v"))
		}(proto.Key(i))
	}
	close(start)
	for i := 0; i < storm; i++ {
		if err := <-errs; err != nil {
			t.Errorf("op %d of the storm: %v", i, err)
		}
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }() // returns only once every pump has exited
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close still blocked after 5s with %d connections accepted, %d closed: a pump is reading a connection nobody can close",
			fs.accepted.Load(), fs.gone.Load())
	}
	// Dial's connection, the storm's survivor, and whatever else the storm
	// dialled: the client has hung up on every one.
	deadline := time.Now().Add(5 * time.Second)
	for fs.gone.Load() != fs.accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d connections, only %d were closed", fs.accepted.Load(), fs.gone.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := fs.accepted.Load(); n < 2 || n > 1+storm {
		t.Fatalf("server accepted %d connections, want 2..%d", n, 1+storm)
	}
}

// TestHostileResponseStreamTearsSessionDown: a server has no business sending
// anything but responses. An INV, a ShardBatch or a
// status outside the enum on the response stream ends the session — every
// in-flight callback hears ErrClosed — instead of being decoded and dropped.
func TestHostileResponseStreamTearsSessionDown(t *testing.T) {
	inv, err := wings.AppendFrame(nil, core.INV{Epoch: 1, Key: 1, Value: proto.Value("v")})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wings.AppendFrame(nil, proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 1, Msg: core.ACK{Epoch: 1, Key: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	badStatus, err := wings.AppendFrame(nil, proto.ClientResp{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	badStatus[len(badStatus)-5] = 0xEE // [8B seq][1B status][4B len]
	for name, frame := range map[string][]byte{"INV": inv, "ShardBatch": batch, "status 0xEE": badStatus} {
		fs := newFakeServer(t, wings.ClientMagic, 8)
		fs.hostile.Store(&frame)
		c, err := Dial(fs.ln.Addr().String(), Config{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := c.Write(1, proto.Value("ok")); err != nil {
			t.Fatalf("%s: healthy op before the hostile frame: %v", name, err)
		}
		// The request that draws the hostile frame is itself in flight when
		// it arrives, so its callback is one that must hear ErrClosed.
		heard := make(chan error, 1)
		if err := c.Do(proto.OpRead, hostileKey, nil, nil, func(_ proto.ClientResp, err error) { heard <- err }); err != nil {
			t.Fatalf("%s: Do: %v", name, err)
		}
		select {
		case err := <-heard:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s on the response stream: in-flight read got %v, want ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s on the response stream: dropped, the in-flight read still waiting after 5s", name)
		}
		c.Close()
	}
}

// TestCreditsReturnToTheWindow: responses repay their requests' credits a
// frame at a time; after 10 000 pipelined reads the window is whole again and
// was never exceeded on the way.
func TestCreditsReturnToTheWindow(t *testing.T) {
	const window, reads = 8, 10000
	fs := newFakeServer(t, wings.ClientMagic, window)
	c, err := Dial(fs.ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var done, inFlight atomic.Int64
	peak := int64(0)
	finished := make(chan struct{})
	for i := 0; i < reads; i++ {
		peak = max(peak, inFlight.Add(1))
		err := c.Do(proto.OpRead, proto.Key(i), nil, nil, func(_ proto.ClientResp, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			inFlight.Add(-1)
			if done.Add(1) == reads {
				close(finished)
			}
		})
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	<-finished
	// A request is in flight from just before its Do to its callback, and Do
	// returns only with a credit in hand, so more than window+1 of them at
	// once means a credit was repaid twice.
	if peak > window+1 {
		t.Fatalf("%d requests in flight at once through a window of %d", peak, window)
	}
	c.mu.Lock()
	link := c.link
	c.mu.Unlock()
	// The last callback runs before its frame's repayment: wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for link.Stats().ImplicitCreditsRecovered != reads {
		if time.Now().After(deadline) {
			t.Fatalf("%d credits repaid for %d reads", link.Stats().ImplicitCreditsRecovered, reads)
		}
		time.Sleep(time.Millisecond)
	}
	// The window is whole — eight more go out without a response coming back
	// (the server is told to stop answering) — and no larger: a ninth blocks.
	fs.hostile.Store(new([]byte))
	sent := make(chan int, window+1)
	go func() {
		for i := 0; i <= window; i++ {
			c.Do(proto.OpRead, hostileKey, nil, nil, func(proto.ClientResp, error) {})
			sent <- i
		}
	}()
	for i := 0; i < window; i++ {
		select {
		case <-sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d of a fresh window blocked: credits were lost", i)
		}
	}
	select {
	case <-sent:
		t.Fatalf("request %d went out through a window of %d: credits above the window", window+1, window)
	case <-time.After(50 * time.Millisecond):
	}
}
