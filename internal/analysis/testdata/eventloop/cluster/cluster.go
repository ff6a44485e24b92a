// Golden cases for the eventloop analyzer's cluster roots: Send/Complete and
// handOff on Env and Transport implementations.
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

// shardTransport stages in Send and sends in handOff, which the event loop
// calls directly: both are roots.
type shardTransport struct {
	mu     sync.Mutex
	staged []any
}

func (t *shardTransport) Send(to int, msg any) { t.staged = append(t.staged, msg) }

func (t *shardTransport) handOff() {
	t.sendAll(t.staged)
	t.staged = t.staged[:0]
}

func (t *shardTransport) sendAll(msgs []any) {
	t.mu.Lock() // want `sync.Mutex.Lock may block the event loop \(event-loop path: handOff → sendAll\)`
	defer t.mu.Unlock()
	_ = msgs
}
