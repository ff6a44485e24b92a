//go:build linux && !386

package wings

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// tcpINQ is TCP_INQ (linux/tcp.h, Linux 4.18): with it set, every recvmsg
// reports in a control message of the same type how many bytes the socket
// still holds after the call, and 1 when it holds none but a FIN.
const tcpINQ = 36

// readsPerEntry is how many reads of a socket that stays busy one
// RawConn.Read callback makes before it lets a Close in (see serveRaw).
const readsPerEntry = 16

// resetProbe is how long a peer's reset can go unseen by a parked reader
// (see serveRaw).
const resetProbe = time.Second

// serveRaw is serveFrames on a TCP socket; raw is false, and nothing has
// been read, when rd is not one or the kernel lacks TCP_INQ.
//
// A net.Conn.Read arms the poller afresh on every call, so a loop that has
// caught up reads each frame once and then once more only to be told
// EAGAIN. Here the loop runs inside RawConn.Read, which arms the poller once,
// at entry, and parks the callback on false until the next readiness edge.
// The callback parks as soon as the socket is drained, without the probing
// read. Drained is what TCP_INQ says, not a short read: a read that takes
// the last bytes takes a FIN queued behind them too, its edge already spent,
// and only the next read would have returned the EOF. An edge that lands
// while frames are being handed over leaves the poller ready, so the park
// returns at once.
//
// While bytes stay queued the callback reads on. Every readsPerEntry reads
// it returns instead, and the next RawConn.Read starts with a read: that is
// where a Close from another goroutine is seen, as between two
// net.Conn.Reads (a parked reader is woken by the Close itself). The one
// thing TCP_INQ does not report is a reset that arrived with the last
// bytes; a read deadline of resetProbe, renewed whenever it expires, wakes
// the reader to read once more, so a reset is noticed within resetProbe.
// The serve loop owns the stream's read deadline and clears it on return.
func (fr *frameReader) serveRaw(rd io.Reader) (raw bool, err error) {
	c, ok := rd.(*net.TCPConn)
	if !ok {
		return false, nil
	}
	rc, err := c.SyscallConn()
	if err != nil {
		return false, nil
	}
	inq := false
	rc.Control(func(fd uintptr) {
		inq = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpINQ, 1) == nil
	})
	if !inq {
		return false, nil
	}
	var m inqMsg
	m.msg.Iov = &m.iov
	m.msg.Iovlen = 1
	m.msg.Control = (*byte)(unsafe.Pointer(&m.oob[0]))
	var serveErr error
	read := func(fd uintptr) bool {
		for i := 1; ; i++ {
			n, e := m.recv(fd, fr.space())
			for e == syscall.EINTR {
				n, e = m.recv(fd, fr.space())
			}
			fr.reads++
			switch {
			case e == syscall.EAGAIN:
				return false
			case e != 0:
				serveErr = os.NewSyscallError("recvmsg", e)
				return true
			case n == 0:
				serveErr = fr.eof()
				return true
			}
			if serveErr = fr.advance(n); serveErr != nil {
				return true
			}
			if !m.queued() {
				return false
			}
			if i == readsPerEntry {
				return true
			}
		}
	}
	c.SetReadDeadline(time.Now().Add(resetProbe))
	defer c.SetReadDeadline(time.Time{})
	for {
		err := rc.Read(read)
		if serveErr != nil {
			return true, serveErr
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.SetReadDeadline(time.Now().Add(resetProbe))
			continue
		}
		if err != nil {
			return true, err
		}
	}
}

// inqMsg is a stream's recvmsg header, built once. syscall.Recvmsg builds
// one per call and hands the kernel an address buffer a TCP socket never
// fills: on loopback (2-vCPU Linux 6.18 VM) that put a recvmsg at about
// +160 ns over a read(2) of the same bytes, where this one is about +75 ns.
type inqMsg struct {
	msg syscall.Msghdr
	iov syscall.Iovec
	oob [3]uint64 // a TCP_INQ control message, aligned for syscall.Cmsghdr
}

// recv is one recvmsg of at most len(p) bytes into p.
func (m *inqMsg) recv(fd uintptr, p []byte) (int, syscall.Errno) {
	m.iov.Base = &p[0]
	m.iov.SetLen(len(p))
	m.msg.SetControllen(syscall.CmsgSpace(4))
	n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&m.msg)), 0)
	return int(n), e
}

// queued reads the TCP_INQ control message the last recv left. A missing
// one counts as bytes queued: the caller reads again rather than park on a
// guess.
func (m *inqMsg) queued() bool {
	if int(m.msg.Controllen) < syscall.CmsgLen(4) {
		return true
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&m.oob[0]))
	if h.Level != syscall.IPPROTO_TCP || h.Type != tcpINQ {
		return true
	}
	return *(*int32)(unsafe.Add(unsafe.Pointer(&m.oob[0]), syscall.CmsgLen(0))) != 0
}
