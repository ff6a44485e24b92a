// Golden cases for the eventloop analyzer's cluster roots: Send/Complete on
// Env and Transport implementations, handOff, and kick.
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

// Shard's handOff ends a burst on the event loop: a root whatever its
// receiver is called.
type Shard struct {
	mu    sync.Mutex
	inbox chan any
}

func (n *Shard) handOff() {
	n.count()
}

func (n *Shard) count() {
	n.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: handOff → count\)`
	defer n.mu.Unlock()
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
