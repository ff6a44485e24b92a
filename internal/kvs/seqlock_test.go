package kvs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/refbuf"
)

// TestStateWordStress runs the protocol's write shape on one hot key — Update
// to Invalid at a new timestamp, commit, SetState(Valid) — against readers on
// both pinning read paths. A Valid snapshot must never be newer than the last
// commit (a word published ahead of its entry, or a state flip landing on the
// wrong entry, would show one), an owned value must stay pinned and intact
// while the reader holds it, and every reference must be back in the pool at
// the end. Run under -race it also checks the word's happens-before edges.
func TestStateWordStress(t *testing.T) {
	st := New(4)
	pool := refbuf.NewPool()
	const key = proto.Key(11)
	const valLen = 64
	const writes = 20000

	fill := func(v uint32) byte { return byte(v%251 + 1) }
	put := func(v uint32, state KeyState) {
		fb := pool.Get(valLen)
		b := fb.Bytes()[0:valLen:valLen]
		for i := range b {
			b[i] = fill(v)
		}
		st.Update(key, Entry{Value: b, TS: proto.TS{Version: v}, State: state, Owner: fb})
	}
	put(1, Valid)
	sl := st.Lookup(key)

	var committed atomic.Uint32
	committed.Store(1)
	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for v := uint32(2); v <= writes; v++ {
			put(v, Invalid)
			committed.Store(v)
			sl.SetState(Valid)
		}
	}()

	check := func(e Entry) {
		if e.State == Valid && e.TS.Version > committed.Load() {
			bad.Add(1)
		}
		if e.Owner == nil {
			bad.Add(1) // every value in this test is owned
			return
		}
		if e.Owner.Refs() < 1 {
			bad.Add(1)
		}
		for _, c := range e.Value {
			if c != fill(e.TS.Version) {
				bad.Add(1)
				break
			}
		}
		e.Owner.Release()
	}
	readers := max(runtime.GOMAXPROCS(0), 4)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				if r%2 == 0 {
					if e, ok := st.GetRetained(key); ok {
						check(e)
					}
				} else if e, ok := st.GetValid(key); ok {
					if e.State != Valid {
						bad.Add(1)
					}
					check(e)
				}
			}
		}(r)
	}
	wg.Wait()

	if n := bad.Load(); n > 0 {
		t.Fatalf("%d reads returned a Valid entry newer than the last commit, or an unpinned or recycled value", n)
	}
	e, ok := st.Get(key)
	if !ok || e.State != Valid || e.TS.Version != writes {
		t.Fatalf("final entry: %+v ok=%v", e, ok)
	}
	if got := e.Owner.Refs(); got != 1 {
		t.Fatalf("final refs = %d, want 1 (leak or over-release in the storm)", got)
	}
}

// TestGetValidRefuses: the fast path's read reports a missing key as the
// implicit Valid initial state, serves a Valid key, and refuses a non-Valid
// one without pinning its owner.
func TestGetValidRefuses(t *testing.T) {
	st := New(4)
	if e, ok := st.GetValid(3); !ok || e.Value != nil {
		t.Fatalf("missing key: %+v ok=%v, want the zero entry", e, ok)
	}
	fb := refbuf.NewPool().Get(4)
	copy(fb.Bytes(), "vvvv")
	st.Update(3, Entry{Value: fb.Bytes()[0:4:4], TS: proto.TS{Version: 2}, State: Invalid, Owner: fb})
	if _, ok := st.GetValid(3); ok {
		t.Fatal("GetValid served an Invalid key")
	}
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after a refused read = %d, want 1", got)
	}
	st.SetState(3, Valid)
	e, ok := st.GetValid(3)
	if !ok || e.State != Valid || string(e.Value) != "vvvv" || e.Owner != fb || fb.Refs() != 2 {
		t.Fatalf("Valid key: %+v ok=%v refs=%d", e, ok, fb.Refs())
	}
	e.Owner.Release()
}

// TestSetStateAllocatesNothing: a state change is one store of the slot's
// word, not a republished entry.
func TestSetStateAllocatesNothing(t *testing.T) {
	st := New(16)
	st.Update(5, Entry{Value: proto.Value("v"), TS: proto.TS{Version: 2}, State: Invalid})
	sl := st.Lookup(5)
	allocs := testing.AllocsPerRun(1000, func() {
		sl.SetState(Valid)
		st.SetState(5, Invalid)
	})
	if allocs != 0 {
		t.Fatalf("SetState allocates %.1f/op; want 0", allocs)
	}
}

// TestStoreBytesPerKey bounds what the index and the slots cost per key,
// measured as live heap after a collection: a store shard's table is at
// most 4/3 over its keys (then doubles), slots are 16 bytes in chunks that
// waste at most one partial chunk, and a store holding a few keys per shard
// (mixed-hot's shape) does not pay for large empty chunks.
func TestStoreBytesPerKey(t *testing.T) {
	for _, tc := range []struct {
		keys  int
		limit float64
	}{{32768, 60}, {512, 64}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := New(64)
		for k := 0; k < tc.keys; k++ {
			st.Ensure(proto.Key(k) * 0x9e3779b97f4a7c15)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perKey := float64(after.HeapAlloc-before.HeapAlloc) / float64(tc.keys)
		runtime.KeepAlive(st)
		t.Logf("%d keys: %.1f B/key", tc.keys, perKey)
		if perKey > tc.limit {
			t.Errorf("%d keys over New(64): %.1f B/key, want <= %.0f", tc.keys, perKey, tc.limit)
		}
	}
}

// TestRangeDuringInsertsAndDoublings: Range walks published index tables
// while another goroutine inserts — enough keys to double every shard's
// table ten times. Every key present when Range starts is visited exactly
// once, and no key is visited twice.
func TestRangeDuringInsertsAndDoublings(t *testing.T) {
	st := New(4)
	const preset = 200
	for k := proto.Key(0); k < preset; k++ {
		st.Update(k, Entry{TS: proto.TS{Version: 2}})
	}
	var inserted atomic.Bool
	go func() {
		defer inserted.Store(true)
		for k := proto.Key(preset); k < 1<<14; k++ {
			st.Update(k, Entry{TS: proto.TS{Version: 2}})
		}
	}()
	for round := 0; round == 0 || !inserted.Load(); round++ {
		seen := make(map[proto.Key]int)
		st.Range(func(k proto.Key, _ Entry) bool {
			seen[k]++
			return true
		})
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: key %d visited %d times", round, k, n)
			}
		}
		for k := proto.Key(0); k < preset; k++ {
			if seen[k] != 1 {
				t.Fatalf("round %d: preset key %d visited %d times", round, k, seen[k])
			}
		}
	}
}
