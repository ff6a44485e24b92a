// Golden cases for the determinism analyzer, in a package named shardhost:
// the host is driven by the simulator from a seed, so it takes time as an
// argument and never reads the wall clock.
package shardhost

import "time"

type Host struct {
	start     time.Time
	notBefore time.Duration
	debounce  time.Duration
}

// Debounced is the green shape: the runtime hands its clock in.
func (h *Host) Debounced(now time.Duration) bool {
	if now < h.notBefore {
		return true
	}
	h.notBefore = now + h.debounce
	return false
}

// DebouncedWallClock is what the live runtime's copy of the observer used to
// do; inside the host it would make chaos runs unreplayable.
func (h *Host) DebouncedWallClock() bool {
	now := time.Since(h.start) // want `time\.Since breaks seeded replay`
	return now < h.notBefore
}

func (h *Host) Restart() {
	h.start = time.Now() // want `time\.Now breaks seeded replay`
}
