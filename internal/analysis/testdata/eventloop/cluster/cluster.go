// Golden cases for the eventloop analyzer's cluster roots: Send/Complete on
// Env and Transport implementations, and handOff.
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
	mu sync.Mutex
}

func (n *Shard) handOff() {
	n.count()
}

func (n *Shard) count() {
	n.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: handOff → count\)`
	defer n.mu.Unlock()
}
