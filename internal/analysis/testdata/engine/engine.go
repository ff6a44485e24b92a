// Fixture for the engine fixpoint unit test (engine_test.go asserts the
// computed summaries for these functions by name): consumption through
// recursion and mutual recursion, result acquisition, no-clone aliasing
// through helpers, refund and blocking propagation, transitive lock sets,
// and the interface-method fallback.
package engine

import (
	"sync"

	"vettest/reftrack/refbuf"
)

var pool refbuf.Pool

func consume(b *refbuf.Buf) { b.Release() }

func keep(b *refbuf.Buf) {}

func consumeRec(b *refbuf.Buf, n int) {
	if n == 0 {
		b.Release()
		return
	}
	consumeRec(b, n-1)
}

func pingConsume(b *refbuf.Buf, n int) {
	if n <= 0 {
		b.Release()
		return
	}
	pongConsume(b, n-1)
}

func pongConsume(b *refbuf.Buf, n int) {
	if n <= 0 {
		b.Release()
		return
	}
	pingConsume(b, n-1)
}

func spinLeak(b *refbuf.Buf, n int) {
	if n == 0 {
		return
	}
	spinLeak(b, n-1)
}

func getRetained() *refbuf.Buf {
	b := pool.Get(8)
	return b
}

func passthrough(v []byte) []byte { return v }

func throughHelper(v []byte) []byte { return passthrough(v) }

func cloned(v []byte) []byte { return append([]byte(nil), v...) }

type Entry struct {
	Value []byte
	Owner *refbuf.Buf
}

// condClone clones exactly when the bytes are pooled: the fall-through
// return aliases only unpooled bytes, so the summary is non-aliasing.
func condClone(e Entry) []byte {
	if e.Owner != nil {
		return cloned(e.Value)
	}
	return e.Value
}

// rawVal has no guard: its result aliases the (possibly pooled) argument.
func rawVal(e Entry) []byte { return e.Value }

func blockRecv(ch chan int) int { return <-ch }

func indirectBlock(ch chan int) int { return blockRecv(ch) }

func pure(x int) int { return x + 1 }

type S struct{ mu sync.Mutex }

func (s *S) lockIt() {
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *S) indirectLock() { s.lockIt() }

type Pusher interface {
	Push(b *refbuf.Buf)
}

func viaInterface(p Pusher, b *refbuf.Buf) { p.Push(b) }
