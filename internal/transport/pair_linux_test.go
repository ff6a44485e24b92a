//go:build linux && !386

package transport

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/proto"
)

// Offsets into the kernel's struct tcp_info (linux/tcp.h) of two Linux 4.2+
// counters: every segment a socket sent, and those that carried data.
const (
	tcpiSegsOut     = 136
	tcpiDataSegsOut = 156
)

// tcpSegsOut reads a connection's tcpi_segs_out and tcpi_data_segs_out; ok
// is false when the kernel's tcp_info stops short of them.
func tcpSegsOut(t *testing.T, c net.Conn) (segs, dataSegs uint32, ok bool) {
	t.Helper()
	tc, isTCP := c.(*net.TCPConn)
	if !isTCP {
		t.Fatalf("%T is not a TCP connection", c)
	}
	raw, err := tc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var info [256]byte
	size := uint32(len(info))
	var errno syscall.Errno
	if err := raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatalf("getsockopt(TCP_INFO): %v", errno)
	}
	if size < tcpiDataSegsOut+4 {
		return 0, 0, false
	}
	return binary.NativeEndian.Uint32(info[tcpiSegsOut:]), binary.NativeEndian.Uint32(info[tcpiDataSegsOut:]), true
}

// TestPairAcksRideData: under INV/ACK traffic, the kernel's acknowledgement
// of a frame rides the next frame going the other way on the pair's one
// connection. Over a connection per direction nearly every data segment
// drew a pure ACK segment back (a ratio of about 1.0); here pure ACK
// segments must be under half the data segments, counted by the kernel on
// both ends of the mesh's own connections.
func TestPairAcksRideData(t *testing.T) {
	a, b, _ := meshPair(t)
	acked := make(chan struct{}, 1)
	a.SetDeliver(0, func(from proto.NodeID, msg any) {
		if _, ok := msg.(core.ACK); ok {
			acked <- struct{}{}
		}
		core.ReleaseMsgOwners(msg)
	})
	b.SetDeliver(1, func(from proto.NodeID, msg any) {
		if inv, ok := msg.(core.INV); ok {
			b.Send(1, 0, core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS})
		}
		core.ReleaseMsgOwners(msg)
	})
	rounds := func(n int) {
		for k := proto.Key(0); k < proto.Key(n); k++ {
			a.Send(0, 1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}, Value: proto.Value("v")})
			select {
			case <-acked:
			case <-time.After(10 * time.Second):
				t.Fatalf("no ACK for INV %d", k)
			}
		}
	}
	rounds(100) // past the connection's quick-ACK start
	settlesToOnePair(t, a, b)
	conns := append(a.liveConns(), b.liveConns()...)
	type counts struct{ segs, data uint32 }
	snap := func() []counts {
		cs := make([]counts, len(conns))
		for i, c := range conns {
			segs, data, ok := tcpSegsOut(t, c)
			if !ok {
				t.Skip("tcp_info has no tcpi_segs_out/tcpi_data_segs_out on this kernel")
			}
			cs[i] = counts{segs, data}
		}
		return cs
	}
	before := snap()
	const n = 2000
	rounds(n)
	after := snap()
	var pure, data uint32
	for i := range conns {
		s, d := after[i].segs-before[i].segs, after[i].data-before[i].data
		pure += s - d
		data += d
	}
	t.Logf("%d INV/ACK rounds: %d data segments, %d pure ACK segments (%.3f per data segment)",
		n, data, pure, float64(pure)/float64(data))
	if data < n {
		t.Fatalf("%d data segments for %d round trips", data, n)
	}
	if 2*pure >= data {
		t.Errorf("%d pure ACK segments for %d data segments: acknowledgements are not riding the traffic", pure, data)
	}
}
