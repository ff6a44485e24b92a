// Golden cases for the eventloop analyzer's cluster roots: Send/Complete on
// Env and Transport implementations, kick, release and fallback.
package cluster

import "sync"

type nodeEnv struct {
	mu sync.Mutex
}

func (e *nodeEnv) Send(to int, msg any) {
	e.enqueue(msg)
}

func (e *nodeEnv) enqueue(msg any) {
	e.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: Send → enqueue\)`
	defer e.mu.Unlock()
	_ = msg
}

type ChanTransport struct {
	inbox chan any
}

// Send is the green shape: non-blocking offer with an explicit drop path.
func (t *ChanTransport) Send(from, to int, msg any) {
	select {
	case t.inbox <- msg:
	default:
	}
}

func (t *ChanTransport) Complete(msg any) {
	t.inbox <- msg //hermesvet:ignore eventloop cap-1 completion channel drained by the sole waiter before reuse
}

// Shard's release runs the tick owed to a held engine as it lets go: a root
// whatever its receiver is called.
type Shard struct {
	mu    sync.Mutex
	inbox chan any
	wake  chan struct{}
}

func (n *Shard) release() {
	n.count()
}

func (n *Shard) count() {
	n.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: release → count\)`
	defer n.mu.Unlock()
}

// fallback is the control goroutine's burst: taking a held engine with Lock
// would stall every shard's clock behind one holder.
func (n *Shard) fallback() {
	n.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: fallback\)`
	n.mu.Unlock()
	n.wake <- struct{}{} // want `channel send may block the event loop \(channel not provably buffered here\) \(event-loop path: fallback\)`
}

// kick runs a burst on the transport pump that delivered it: a root too. The
// non-blocking receive is the green shape; a plain one under the engine lock
// is red.
func (n *Shard) kick() {
	if !n.mu.TryLock() {
		return
	}
	defer n.mu.Unlock()
	select {
	case m := <-n.inbox:
		_ = m
	default:
	}
	n.take()
}

func (n *Shard) take() {
	_ = <-n.inbox // want `channel receive may block the event loop \(event-loop path: kick → take\)`
}
