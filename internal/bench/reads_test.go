package bench

import (
	"testing"
	"time"
)

// The fast path must serve essentially every read of a preloaded, mostly
// quiescent keyspace: this is the hit-rate half of the acceptance bar.
func TestLiveReadFastPathHitRate(t *testing.T) {
	r := RunReadPoint(4, 4, 1.0, 30*time.Millisecond, false)
	if r.Reads == 0 {
		t.Fatal("no reads completed")
	}
	if hr := r.HitRate(); hr < 0.9 {
		t.Fatalf("fast-path hit rate %.3f < 0.9 (hits=%d misses=%d reads=%d)",
			hr, r.FastHits, r.FastMisses, r.Reads)
	}
}

// In NoLSC mode every read must take the §8 speculative Submit path: the
// fast path is provably disabled (hit rate exactly 0).
func TestLiveReadFastPathDisabledUnderNoLSC(t *testing.T) {
	r := RunReadPoint(1, 2, 1.0, 20*time.Millisecond, true)
	if r.Reads == 0 {
		t.Fatal("no reads completed")
	}
	if r.FastHits != 0 {
		t.Fatalf("NoLSC: %d fast-path hits, want 0", r.FastHits)
	}
}

// Under concurrent clients and a write mix, reads still complete and are
// served on the callers' goroutines by the fast path rather than serialized
// through the event loops. How read THROUGHPUT scales with clients is a
// measurement (`hermes-bench -exp reads`), not an assertion.
func TestLiveReadsServedOffEventLoopUnderConcurrency(t *testing.T) {
	r1 := RunReadPoint(4, 1, 0.95, 40*time.Millisecond, false)
	r8 := RunReadPoint(4, 8, 0.95, 40*time.Millisecond, false)
	if r1.Reads == 0 || r8.Reads == 0 {
		t.Fatalf("no reads completed: %d / %d", r1.Reads, r8.Reads)
	}
	if hr := r8.HitRate(); hr < 0.5 {
		t.Fatalf("8 clients: fast-path hit rate %.3f < 0.5 (hits=%d misses=%d reads=%d)",
			hr, r8.FastHits, r8.FastMisses, r8.Reads)
	}
}
