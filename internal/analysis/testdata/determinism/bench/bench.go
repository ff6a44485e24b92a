// Golden cases for the determinism analyzer, in a package named bench: the
// figure harness runs on the simulator, so a window is measured on the
// virtual clock and two runs print the same table.
package bench

import "time"

type Cluster struct{ now time.Duration }

// Now is the simulator's virtual clock.
func (c *Cluster) Now() time.Duration { return c.now }

// Window is the green shape: elapsed virtual time.
func Window(c *Cluster, run func()) time.Duration {
	start := c.Now()
	run()
	return c.Now() - start
}

// WallStart is what the deleted live experiments did: it reads the host's
// clock, which belongs to benchmark/, not to the figure harness.
func WallStart() time.Time {
	return time.Now() // want `time\.Now breaks seeded replay`
}
