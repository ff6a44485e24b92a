// Golden cases for the eventloop analyzer's shardhost roots: Send, Flush and
// FlushAll on Egress, the stager every shard engine has as its proto.Env.
package shardhost

type Egress struct {
	wire   func(to int, msg any)
	staged []any
	done   chan struct{}
}

// Send is the green shape: it stages.
func (e *Egress) Send(to int, msg any) { e.staged = append(e.staged, msg) }

func (e *Egress) Flush() {
	for _, m := range e.staged {
		e.wire(0, m)
	}
	e.staged = e.staged[:0]
	e.signal()
}

func (e *Egress) FlushAll() {
	<-e.done // want `channel receive may block the event loop \(event-loop path: FlushAll\)`
	e.Flush()
}

func (e *Egress) signal() {
	e.done <- struct{}{} // want `channel send may block the event loop \(channel not provably buffered here\) \(event-loop path: Flush → signal\)`
}

// Len is not a root: nothing on the event loop's path reaches it here.
func (e *Egress) Len() int {
	e.done <- struct{}{}
	return len(e.staged)
}

// Host is not a root either: its control plane runs under the runtime's
// mutex, not on the event loop.
type Host struct{ ch chan int }

func (h *Host) Send(to int, msg any) { h.ch <- to }
