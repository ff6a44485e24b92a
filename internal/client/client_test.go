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
}

func newFakeServer(t *testing.T, magic [4]byte, window uint32) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fs := &fakeServer{ln: ln, magic: magic, window: window}
	fs.wg.Add(1)
	go fs.accept()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return fs
}

func (fs *fakeServer) accept() {
	defer fs.wg.Done()
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.wg.Add(1)
		go fs.serve(conn)
	}
}

func (fs *fakeServer) serve(conn net.Conn) {
	defer fs.wg.Done()
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
	var mu sync.Mutex
	wings.ServeFrames(conn, func(msg any) error {
		req, ok := msg.(proto.ClientReq)
		if !ok {
			return errors.New("fake server: unexpected message")
		}
		buf, err := wings.AppendFrame(nil, proto.ClientResp{
			Seq: req.Seq, Status: proto.OK, Value: req.Value,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		_, err = conn.Write(buf)
		mu.Unlock()
		return err
	})
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

// TestServerDeathStrandsWaiters kills the connection with a request in
// flight: the blocking caller must get ErrClosed, not hang.
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
