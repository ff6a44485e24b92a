package wings

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// readBufSize is a stream's read buffer. A frame that fits in it, length
// prefix included, is handed over where it was read; a longer one is
// assembled in a buffer of its own from bigFrames.
const readBufSize = 64 << 10

// bigFrames recycles the buffers frames longer than readBufSize are
// assembled in. Each is held by exactly one reader, as the *[]byte the pool
// handed out, for exactly one frame.
var bigFrames = sync.Pool{New: func() any { return new([]byte) }}

// serveFrames cuts the byte stream rd into frames and hands each body — the
// frame after its 4-byte length: [2B count] then the messages — to handle,
// in order, until a read error, EOF, a bad frame length, or handle returning
// a non-nil error, which is returned as it is. The body is valid until handle
// returns. A stream that ends on a frame boundary reports io.EOF; one that
// ends inside a frame, io.ErrUnexpectedEOF.
//
// A TCP socket on Linux is read with raw syscalls that never probe a
// drained socket (serveRaw); every other reader with plain Reads into the
// same buffer.
func serveFrames(rd io.Reader, handle func(body []byte) error) error {
	fr := frameReader{buf: make([]byte, readBufSize), handle: handle}
	return fr.serve(rd)
}

func (fr *frameReader) serve(rd io.Reader) error {
	defer fr.dropBig()
	if raw, err := fr.serveRaw(rd); raw {
		return err
	}
	for {
		n, err := rd.Read(fr.space())
		fr.reads++
		if n > 0 {
			if err := fr.advance(n); err != nil {
				return err
			}
		}
		if err == io.EOF {
			return fr.eof()
		}
		if err != nil {
			return err
		}
	}
}

// frameReader is serveFrames' buffer. The read buffer never grows: a frame
// longer than it goes to big and the reader returns to buf once that frame
// has been handed over.
type frameReader struct {
	buf    []byte // readBufSize bytes; buf[r:w] is read and not handed over yet
	r, w   int
	big    *[]byte // the frame longer than buf being assembled, from bigFrames
	got    int     // bytes of *big read so far
	handle func(body []byte) error
	reads  int // receive calls made
}

// space is where the next read goes: the rest of a long frame, or buf past
// its unread tail. The tail slides to the front first, as bufio.Reader.fill
// does, so reads keep to the buffer's first pages.
func (fr *frameReader) space() []byte {
	if fr.big != nil {
		return (*fr.big)[fr.got:]
	}
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	return fr.buf[fr.w:]
}

// advance takes n bytes just read into space and hands over every frame
// they complete.
func (fr *frameReader) advance(n int) error {
	if fr.big != nil {
		if fr.got += n; fr.got < len(*fr.big) {
			return nil
		}
		err := fr.handle(*fr.big)
		fr.dropBig()
		return err
	}
	fr.w += n
	for fr.w-fr.r >= 4 {
		n := int(binary.LittleEndian.Uint32(fr.buf[fr.r:]))
		if n < 2 || n > maxFrame {
			return fmt.Errorf("wings: bad frame length %d", n)
		}
		if 4+n > len(fr.buf) {
			fr.startBig(n)
			return nil
		}
		end := fr.r + 4 + n
		if end > fr.w {
			break
		}
		body := fr.buf[fr.r+4 : end]
		fr.r = end
		if err := fr.handle(body); err != nil {
			return err
		}
	}
	return nil
}

// startBig moves the frame at buf[r:] — n bytes of body, longer than buf —
// into a buffer of its own; what buf holds of it is all there is in buf.
func (fr *frameReader) startBig(n int) {
	p := bigFrames.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	fr.got = copy(*p, fr.buf[fr.r+4:fr.w])
	fr.big = p
	fr.r, fr.w = 0, 0
}

func (fr *frameReader) dropBig() {
	if fr.big != nil {
		bigFrames.Put(fr.big)
		fr.big, fr.got = nil, 0
	}
}

// eof is the error of a stream that ended where the reader stands.
func (fr *frameReader) eof() error {
	if fr.big != nil || fr.w > fr.r {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}
