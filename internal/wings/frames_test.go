package wings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// The stream reader under every serve loop (serveFrames) has two paths: raw
// syscalls on a TCP socket on Linux, plain Reads on anything else. Each test
// below runs over loopback TCP, which takes the raw path, and over net.Pipe,
// which takes the plain one.

// streamKinds opens a connected (writer, reader) pair of each kind. closeWrite
// ends the writer's direction only, so the reader sees EOF after the bytes in
// flight.
var streamKinds = []struct {
	name string
	open func(t *testing.T) (w, r net.Conn)
}{
	{"tcp", tcpPair},
	{"pipe", func(t *testing.T) (net.Conn, net.Conn) {
		w, r := net.Pipe()
		t.Cleanup(func() { w.Close(); r.Close() })
		return w, r
	}},
}

func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
		return
	}
	c.Close()
}

// tcpPair connects two loopback TCP sockets.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		a.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// rawFrame frames body: [4B length][body].
func rawFrame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// collectFrames serves r until it ends and returns a copy of every body and
// the error the stream ended with.
func collectFrames(r io.Reader) (bodies [][]byte, err error) {
	err = serveFrames(r, func(body []byte) error {
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	return bodies, err
}

// writeAll writes stream to w in chunks of seeded random size, then ends the
// write direction; write errors (the reader gave up first) are ignored.
func writeAll(w net.Conn, stream []byte, seed int64, maxChunk int) {
	rng := rand.New(rand.NewSource(seed))
	for len(stream) > 0 {
		n := min(1+rng.Intn(maxChunk), len(stream))
		if _, err := w.Write(stream[:n]); err != nil {
			break
		}
		stream = stream[n:]
	}
	closeWrite(w)
}

// TestServeFramesBigFrameBetweenSmall: a frame far longer than the read
// buffer is assembled on its own and handed over byte-identical, and the
// small frames around it are untouched — the frame after it is read into the
// buffer again.
func TestServeFramesBigFrameBetweenSmall(t *testing.T) {
	big := make([]byte, 200<<10)
	rand.New(rand.NewSource(1)).Read(big)
	want := [][]byte{[]byte("small one"), big, []byte("small two"), big[:readBufSize-4], []byte("three")}
	var stream []byte
	for _, b := range want {
		stream = append(stream, rawFrame(b)...)
	}
	for _, k := range streamKinds {
		t.Run(k.name, func(t *testing.T) {
			w, r := k.open(t)
			go writeAll(w, stream, 2, 96<<10)
			got, err := collectFrames(r)
			if err != io.EOF {
				t.Fatalf("stream ended with %v, want io.EOF", err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d frames, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("frame %d (%d bytes) arrived as %d different bytes", i, len(want[i]), len(got[i]))
				}
			}
		})
	}
}

// TestServeFramesCutStream: a stream cut on a frame boundary ends with
// io.EOF, one cut anywhere inside a frame — its length prefix included — with
// io.ErrUnexpectedEOF, on both paths and over a bytes.Reader alike; every
// frame before the cut is handed over.
func TestServeFramesCutStream(t *testing.T) {
	frames := [][]byte{[]byte("ab"), []byte("cdefgh"), make([]byte, readBufSize)}
	var stream []byte
	var bounds []int
	for _, f := range frames {
		stream = append(stream, rawFrame(f)...)
		bounds = append(bounds, len(stream))
	}
	cuts := []int{0, 1, 3, 4, 5, bounds[0], bounds[0] + 2, bounds[1], bounds[1] + 4, bounds[1] + 100, len(stream) - 1}
	for _, cut := range cuts {
		whole := 0
		for _, b := range bounds {
			if b <= cut {
				whole++
			}
		}
		wantErr := io.ErrUnexpectedEOF
		if cut == 0 || (whole > 0 && bounds[whole-1] == cut) {
			wantErr = io.EOF
		}
		got, err := collectFrames(bytes.NewReader(stream[:cut]))
		if err != wantErr || len(got) != whole {
			t.Fatalf("bytes.Reader cut at %d: %d frames and %v, want %d and %v", cut, len(got), err, whole, wantErr)
		}
		for _, k := range streamKinds {
			w, r := k.open(t)
			go writeAll(w, stream[:cut], int64(cut), 1<<10)
			got, err := collectFrames(r)
			if err != wantErr || len(got) != whole {
				t.Fatalf("%s cut at %d: %d frames and %v, want %d and %v", k.name, cut, len(got), err, whole, wantErr)
			}
		}
	}
}

// TestServeFramesByteAtATime: a frame written one byte per write is handed
// over exactly once, whole.
func TestServeFramesByteAtATime(t *testing.T) {
	body := []byte("one frame, one byte per write")
	for _, k := range streamKinds {
		t.Run(k.name, func(t *testing.T) {
			w, r := k.open(t)
			go func() {
				for _, b := range rawFrame(body) {
					if _, err := w.Write([]byte{b}); err != nil {
						return
					}
				}
				closeWrite(w)
			}()
			got, err := collectFrames(r)
			if err != io.EOF || len(got) != 1 || !bytes.Equal(got[0], body) {
				t.Fatalf("got %q and %v, want one frame %q and io.EOF", got, err, body)
			}
		})
	}
}

// TestServeFramesLinkRoundTrips: strict request/response alternation is the
// reader's worst case for a lost wakeup — every frame arrives on a drained
// socket, right after the reader decided to park — so a lost edge shows as a
// round trip that never completes.
func TestServeFramesLinkRoundTrips(t *testing.T) {
	cfg := LinkConfig{Credits: 64, IsResponse: func(m any) bool {
		_, ok := m.(proto.ClientResp)
		return ok
	}}
	for _, k := range streamKinds {
		t.Run(k.name, func(t *testing.T) {
			nearConn, farConn := k.open(t)
			near, far := NewLink(nearConn, cfg), NewLink(farConn, cfg)
			back := make(chan struct{}, 1)
			var served sync.WaitGroup
			served.Add(2)
			go func() {
				defer served.Done()
				far.Serve(farConn, func(m any) { far.Send(proto.ClientResp{Seq: m.(proto.ClientReq).Seq}) })
			}()
			go func() {
				defer served.Done()
				near.Serve(nearConn, func(any) { back <- struct{}{} })
			}()
			defer func() {
				nearConn.Close()
				farConn.Close()
				near.Close()
				far.Close()
				served.Wait()
			}()
			for i := 0; i < 10000; i++ {
				if err := near.Send(proto.ClientReq{Seq: uint64(i), Op: proto.OpRead, Key: 1}); err != nil {
					t.Fatal(err)
				}
				select {
				case <-back:
				case <-time.After(5 * time.Second):
					t.Fatalf("round trip %d never came back", i)
				}
			}
		})
	}
}

// TestServeReturnsOnClose: closing the stream from another goroutine returns
// Serve, whether it is parked on an idle socket or busy with a peer that
// keeps writing, and leaves no goroutine behind.
func TestServeReturnsOnClose(t *testing.T) {
	for _, k := range streamKinds {
		for _, busy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/busy=%v", k.name, busy), func(t *testing.T) {
				before := runtime.NumGoroutine()
				w, r := k.open(t)
				stop := make(chan struct{})
				wrote := make(chan struct{})
				go func() {
					defer close(wrote)
					frame := rawFrame(make([]byte, 1000))
					for busy {
						if _, err := w.Write(frame); err != nil {
							return
						}
					}
					<-stop
				}()
				served := make(chan error, 1)
				go func() {
					served <- NewLink(io.Discard, LinkConfig{}).Serve(r, func(any) {})
				}()
				time.Sleep(20 * time.Millisecond)
				r.Close()
				select {
				case err := <-served:
					if err == nil || errors.Is(err, io.EOF) {
						t.Fatalf("Serve on a closed stream returned %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Serve did not return after Close")
				}
				close(stop)
				w.Close()
				<-wrote
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// TestServeFramesOneReceivePerFrame pins the mechanism: in a ping-pong every
// frame arrives on a drained socket, and the raw path receives it with one
// recvmsg and parks on what TCP_INQ says. A loop of net.Conn.Reads receives
// each frame and then probes once more for EAGAIN: 2 reads a frame. The
// kernel's read(2) counter (syscr in /proc/self/io, which counts no recvmsg)
// shows that no probe went around the reader's own count.
func TestServeFramesOneReceivePerFrame(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the raw path is Linux's")
	}
	a, b := tcpPair(t)
	req, resp := rawFrame([]byte("ping")), rawFrame([]byte("pong"))
	back := make(chan struct{}, 1)
	far := frameReader{buf: make([]byte, readBufSize), handle: func([]byte) error {
		_, err := b.Write(resp)
		return err
	}}
	near := frameReader{buf: make([]byte, readBufSize), handle: func([]byte) error {
		back <- struct{}{}
		return nil
	}}
	var served sync.WaitGroup
	served.Add(2)
	go func() { defer served.Done(); far.serve(b) }()
	go func() { defer served.Done(); near.serve(a) }()
	const trips = 5000
	syscr0, counted := readSyscalls()
	for i := 0; i < trips; i++ {
		if _, err := a.Write(req); err != nil {
			t.Fatal(err)
		}
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			t.Fatalf("round trip %d never came back", i)
		}
	}
	syscr1, _ := readSyscalls()
	a.Close()
	b.Close()
	served.Wait()
	perFrame := float64(near.reads+far.reads) / (2 * trips)
	t.Logf("%d receive calls for %d received frames: %.3f a frame", near.reads+far.reads, 2*trips, perFrame)
	if perFrame > 1.1 {
		t.Fatalf("%.3f receive calls per received frame, want <= 1.1", perFrame)
	}
	if counted && syscr1-syscr0 > trips/10 {
		t.Fatalf("%d read(2) calls in %d round trips: the raw path was not taken", syscr1-syscr0, trips)
	}
}

// readSyscalls is the process's read(2) count (syscr in /proc/self/io), and
// whether there is one.
func readSyscalls() (uint64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// TestServeFramesEOFArrivingWithData: a FIN queued behind the last frames,
// all of it there before the reader starts, ends the stream at once — the
// read that takes the frames takes the FIN too, and the edge that announced
// them is gone.
func TestServeFramesEOFArrivingWithData(t *testing.T) {
	stream := append(rawFrame([]byte("one")), rawFrame([]byte("two"))...)
	for _, cut := range []int{len(stream), len(stream) - 2} {
		want := io.EOF
		if cut < len(stream) {
			want = io.ErrUnexpectedEOF
		}
		w, r := tcpPair(t)
		if _, err := w.Write(stream[:cut]); err != nil {
			t.Fatal(err)
		}
		closeWrite(w)
		time.Sleep(20 * time.Millisecond)
		start := time.Now()
		got, err := collectFrames(r)
		if err != want || len(got) != 1+cut/len(stream) {
			t.Fatalf("cut at %d: %d frames and %v, want %d and %v", cut, len(got), err, 1+cut/len(stream), want)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("cut at %d: EOF seen after %v", cut, d)
		}
	}
}

// TestServeFramesResetArrivingWithData: a reset that arrives with the last
// frames is reported by no edge and no TCP_INQ count; the reader still
// hands the frames over and ends with the reset within the probe interval.
func TestServeFramesResetArrivingWithData(t *testing.T) {
	w, r := tcpPair(t)
	if _, err := w.Write(rawFrame([]byte("last words"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	w.(*net.TCPConn).SetLinger(0) // close with a reset
	w.Close()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	var got [][]byte
	var err error
	go func() {
		defer close(done)
		got, err = collectFrames(r)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a reset that arrived with the data was never noticed")
	}
	if len(got) != 1 || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("got %d frames and %v, want 1 and a reset", len(got), err)
	}
}

// TestServeClientRespsAllocatesNothingPerFrame: a client's response stream
// is decoded where it was read — no frame copy, no pooled buffer — so a
// steady stream of responses allocates nothing per frame: not in the frame
// handler, and not in the reader, whose cost per stream does not grow with
// the frames served.
func TestServeClientRespsAllocatesNothingPerFrame(t *testing.T) {
	resps := make([]proto.ClientResp, 16)
	for i := range resps {
		resps[i] = proto.ClientResp{Seq: uint64(i), Status: proto.OK}
	}
	frame, err := AppendClientResps(nil, resps)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLink(sink{}, LinkConfig{Credits: 64})
	defer l.Close()
	seen := 0
	handle := l.clientRespFrames(func(*proto.ClientResp) { seen++ })
	body := frame[4:]
	if n := testing.AllocsPerRun(200, func() {
		if err := handle(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("handling a frame of 16 responses allocates %.0f times, want 0", n)
	}
	serve := func(frames int) func() {
		stream := bytes.Repeat(frame, frames)
		rd := bytes.NewReader(stream)
		return func() {
			rd.Reset(stream)
			if err := l.ServeClientResps(rd, func(*proto.ClientResp) { seen++ }); err != io.EOF {
				t.Fatal(err)
			}
		}
	}
	one, many := testing.AllocsPerRun(20, serve(1)), testing.AllocsPerRun(20, serve(2000))
	if many > one {
		t.Fatalf("serving 4000 frames allocates %.0f times, 2 frames %.0f: the reader allocates per frame", many, one)
	}
	if seen == 0 {
		t.Fatal("no response was handed over")
	}
}

// TestServeFramesRawPathMatchesPlain replays the fuzz targets' seed corpora,
// each seed alone and all of them as one stream, through a loopback TCP pair
// in seeded random write sizes: the raw path must hand over the same messages
// and end with the same error as the plain path over a bytes.Reader.
func TestServeFramesRawPathMatchesPlain(t *testing.T) {
	clientReqs := func(r io.Reader) (got []any, err error) {
		err = ServeClientReqs(r, nil, func(m *proto.ClientReq) error {
			got = append(got, *m)
			return nil
		})
		return got, err
	}
	linkMsgs := func(r io.Reader) (got []any, err error) {
		err = NewLink(io.Discard, LinkConfig{}).Serve(r, func(m any) {
			if sb, ok := m.(proto.ShardBatch); ok {
				sb.Msgs = append([]proto.ShardMsg(nil), sb.Msgs...) // the loop's scratch
				m = sb
			}
			got = append(got, m)
		})
		return got, err
	}
	var sb proto.ShardBatch
	for i := 0; i < 40; i++ {
		sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: uint16(i % 3), Msg: core.INV{Epoch: 1, Key: proto.Key(i), Value: make(proto.Value, 2000)}})
	}
	bigBatch, err := AppendFrame(nil, sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		seeds [][]byte
		serve func(io.Reader) ([]any, error)
	}{
		{"FuzzClientFrames", clientFrameSeeds(t), clientReqs},
		{"FuzzDecodeOne", append([][]byte{bigBatch}, linkFrameSeeds(t)...), linkMsgs},
	} {
		streams := append([][]byte{bytes.Join(c.seeds, nil)}, c.seeds...)
		for i, stream := range streams {
			want, wantErr := c.serve(bytes.NewReader(stream))
			w, r := tcpPair(t)
			go writeAll(w, stream, int64(i), 1+len(stream)/3)
			got, err := c.serve(r)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s stream %d: raw path ended with %v, plain path with %v", c.name, i, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s stream %d: raw path handed over %+v, plain path %+v", c.name, i, got, want)
			}
		}
	}
}
