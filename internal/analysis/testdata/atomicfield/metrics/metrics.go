// Golden cases for the atomicfield analyzer: function-style atomics on fields.
package metrics

import "sync/atomic"

type Counters struct {
	reads  uint64
	writes uint64
	other  uint64
}

func (c *Counters) IncReads() {
	atomic.AddUint64(&c.reads, 1) // want `atomic\.AddUint64 on field reads: use atomic\.Uint64 etc\. on the field`
}

func (c *Counters) Reads() uint64 {
	return atomic.LoadUint64(&c.reads) // want `atomic\.LoadUint64 on field reads`
}

func (c *Counters) Snapshot() uint64 {
	return c.reads // the mixed access the typed field would make a compile error
}

func (c *Counters) IncWrites() {
	atomic.AddUint64(&c.writes, 1) //hermesvet:ignore atomicfield golden case exercising suppression of an audited site
}

func (c *Counters) WritesApprox() uint64 {
	return c.writes
}

// Other is never touched atomically, so plain access is fine.
func (c *Counters) Other() uint64 {
	c.other++
	return c.other
}
