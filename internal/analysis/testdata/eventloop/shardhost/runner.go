package shardhost

// Runner drains a shard's queues into windows and runs its turns: its
// exported methods are roots.
type Runner struct {
	msgs chan any
	win  []any
}

// Burst is the green shape: non-blocking receives of what was queued.
func (r *Runner) Burst() {
	for n := len(r.msgs); n > 0; n-- {
		select {
		case m := <-r.msgs:
			r.win = append(r.win, m)
		default:
		}
	}
	r.Run()
}

// Run fills the rest of its window with a receive that waits for an entry:
// red, under the engine lock.
func (r *Runner) Run() {
	r.fill()
	r.win = r.win[:0]
}

func (r *Runner) fill() {
	r.win = append(r.win, <-r.msgs) // want `channel receive may block the event loop \(event-loop path: Burst → Run → fill\)`
}

// wait is not a root, and no root reaches it.
func (r *Runner) wait() any { return <-r.msgs }
