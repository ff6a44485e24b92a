package kvs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/refbuf"
)

// TestGetRetainedPinsAcrossReplacement pins the GetRetained contract
// single-threaded first: a pinned buffer survives the entry's replacement,
// and the pin is the only thing keeping it out of the pool.
func TestGetRetainedPinsAcrossReplacement(t *testing.T) {
	st := New(4)
	pool := refbuf.NewPool()

	// Above InlineCap: an owner is adopted only by an entry-held value.
	const original = "original value, above the inline cap"
	fb := pool.Get(len(original))
	copy(fb.Bytes(), original)
	st.Update(1, Entry{Value: fb.Bytes()[0:len(original):len(original)], TS: proto.TS{Version: 2}, Owner: fb})

	e, ok := st.GetRetained(1)
	if !ok || e.Owner != fb {
		t.Fatalf("GetRetained: %+v ok=%v", e, ok)
	}
	if got := fb.Refs(); got != 2 {
		t.Fatalf("refs after pin = %d, want 2 (store + reader)", got)
	}

	// Replace the entry: the store's reference drops, the reader's holds.
	st.Update(1, Entry{Value: proto.Value("successor"), TS: proto.TS{Version: 4}})
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after replacement = %d, want 1 (reader's pin)", got)
	}
	if string(e.Value) != original {
		t.Fatalf("pinned value changed: %q", e.Value)
	}
	e.Owner.Release()
	if got := fb.Refs(); got != 0 {
		t.Fatalf("refs after reader release = %d, want 0", got)
	}

	// Owner-less entries come back unpinned.
	e2, ok := st.GetRetained(1)
	if !ok || e2.Owner != nil {
		t.Fatalf("owner-less GetRetained: %+v ok=%v", e2, ok)
	}
}

// TestGetRetainedAllocatesNothing pins the cost of the pin protocol on an
// owner-backed 4 KiB entry — TryRetain, pointer re-check, Release — at zero
// allocations: a GetRetained that cloned the value instead of pinning its
// buffer would show up here as one allocation per read.
func TestGetRetainedAllocatesNothing(t *testing.T) {
	const size = 4096
	st := New(16)
	fb := refbuf.NewPool().Get(size)
	st.Update(5, Entry{Value: fb.Bytes()[0:size:size], TS: proto.TS{Version: 2}, State: Valid, Owner: fb})

	allocs := testing.AllocsPerRun(1000, func() {
		e, ok := st.GetRetained(5)
		if !ok || e.Owner != fb {
			t.Fatalf("GetRetained: %+v ok=%v", e, ok)
		}
		e.Owner.Release()
	})
	if allocs != 0 {
		t.Fatalf("GetRetained + Release allocates %.1f/op on an owner-backed %d B entry; want 0", allocs, size)
	}
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after the loop = %d, want 1 (the store's)", got)
	}
}

// TestGetRetainedRace storms GetRetained readers against a single writer
// replacing the entry with owner-backed values drawn from one pool — the
// exact shape of the live read path (server fast reads) racing the INV adopt
// path. Every value is filled with one repeated byte, so a reader holding a
// buffer past its release window (a refcount bug) would observe a torn or
// recycled value. Run under -race this also checks the pin protocol's
// happens-before edges.
func TestGetRetainedRace(t *testing.T) {
	st := New(4)
	pool := refbuf.NewPool()
	const key = proto.Key(7)
	const valLen = 128

	seed := pool.Get(valLen)
	for i := range seed.Bytes() {
		seed.Bytes()[i] = 1
	}
	st.Update(key, Entry{Value: seed.Bytes()[0:valLen:valLen], TS: proto.TS{Version: 1}, Owner: seed})

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup

	// Single writer per key — the store's discipline — churning owner-backed
	// replacements as fast as the pool recycles. Bounded so the storm
	// terminates deterministically; readers spin until the writer is done.
	const writes = 20000
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := uint32(2); i < writes; i++ {
			fb := pool.Get(valLen)
			b := fb.Bytes()
			fill := byte(i%250 + 1)
			for j := range b {
				b[j] = fill
			}
			st.Update(key, Entry{Value: b[0:valLen:valLen], TS: proto.TS{Version: i}, Owner: fb})
		}
	}()

	readers := runtime.GOMAXPROCS(0)
	if readers < 4 {
		readers = 4
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, ok := st.GetRetained(key)
				if !ok {
					continue
				}
				// A consistent snapshot is all-one-byte; anything else means
				// the buffer was recycled while we held the pin.
				first := e.Value[0]
				for _, c := range e.Value {
					if c != first {
						torn.Add(1)
						break
					}
				}
				if e.Owner != nil {
					e.Owner.Release()
				}
			}
		}()
	}

	wg.Wait()

	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn/recycled reads observed through GetRetained pins", n)
	}
	// The final entry still holds exactly the store's reference.
	e, ok := st.Get(key)
	if !ok || e.Owner == nil {
		t.Fatalf("final entry: %+v ok=%v", e, ok)
	}
	if got := e.Owner.Refs(); got != 1 {
		t.Fatalf("final refs = %d, want 1 (leak or over-release in the storm)", got)
	}
}

// TestSetStateTransfersOwnership checks the VAL transition (Invalid→Valid)
// republishes the entry without touching the refcount: a transfer of the
// store's single reference, not a retain/release pair.
func TestSetStateTransfersOwnership(t *testing.T) {
	st := New(4)
	pool := refbuf.NewPool()
	fb := pool.Get(InlineCap + 1)
	st.Update(2, Entry{Value: fb.Bytes()[0 : InlineCap+1 : InlineCap+1], TS: proto.TS{Version: 2}, State: Invalid, Owner: fb})

	st.SetState(2, Valid)
	e, _ := st.Get(2)
	if e.State != Valid || e.Owner != fb {
		t.Fatalf("after SetState: %+v", e)
	}
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after SetState = %d, want 1 (pure transfer)", got)
	}

	st.Update(2, Entry{Value: proto.Value("x"), TS: proto.TS{Version: 4}})
	if got := fb.Refs(); got != 0 {
		t.Fatalf("refs after replacement = %d, want 0", got)
	}
}
