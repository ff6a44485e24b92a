package kvs

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/proto"
)

// TestPrefetchChangesNothing: a pass over present and absent keys, longer
// than one batch, leaves every Lookup result and every record as it was, and
// indexes none of the absent keys.
func TestPrefetchChangesNothing(t *testing.T) {
	st := New(4)
	for k := proto.Key(0); k < 100; k += 2 {
		st.Update(k, Entry{Value: proto.Value{byte(k)}, TS: proto.TS{Version: uint32(k) + 1}, State: Valid})
	}
	st.Update(1000, Entry{Value: bytes.Repeat([]byte{7}, InlineCap+1), TS: proto.TS{Version: 3}, State: Invalid})
	keys := make([]proto.Key, 0, 3*prefetchBatch)
	for k := proto.Key(0); len(keys) < cap(keys)-1; k++ {
		keys = append(keys, k) // even keys present, odd ones absent
	}
	keys = append(keys, 1000)

	type rec struct {
		sl *Slot
		e  Entry
		ok bool
	}
	snap := func() []rec {
		var out []rec
		for _, k := range keys {
			sl := st.Lookup(k)
			e, ok := sl.Load()
			out = append(out, rec{sl, e, ok})
		}
		return out
	}
	before := snap()
	st.Prefetch(keys)
	st.Prefetch(nil)
	after := snap()
	for i, k := range keys {
		b, a := before[i], after[i]
		if a.sl != b.sl || a.ok != b.ok || a.e.TS != b.e.TS || a.e.State != b.e.State || !bytes.Equal(a.e.Value, b.e.Value) {
			t.Fatalf("key %d: %+v before Prefetch, %+v after", k, b, a)
		}
		if (k%2 == 1 && k != 1000) != (a.sl == nil) {
			t.Fatalf("key %d: slot %p", k, a.sl)
		}
	}
}

// TestPrefetchAllocatesNothing pins the pass's budget: it runs once per
// window of the shard loop and once per client frame.
func TestPrefetchAllocatesNothing(t *testing.T) {
	st := New(64)
	keys := make([]proto.Key, 2*prefetchBatch+5)
	for i := range keys {
		keys[i] = proto.Key(i * 7)
		if i%3 != 0 {
			st.Update(keys[i], Entry{Value: proto.Value("v"), TS: proto.TS{Version: 2}})
		}
	}
	if n := testing.AllocsPerRun(1000, func() { st.Prefetch(keys) }); n != 0 {
		t.Fatalf("Prefetch allocates %.1f times per call, want 0", n)
	}
}

// TestPrefetchRace runs the pass against a writer that inserts keys (doubling
// the index under it), updates them inline and entry-held, and flips their
// states; under -race it checks that the pass's loads are all synchronized.
func TestPrefetchRace(t *testing.T) {
	st := New(2)
	const keys = 4096
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := bytes.Repeat([]byte{1}, InlineCap+8)
		for k := proto.Key(0); k < keys; k++ {
			v := proto.Value{byte(k)}
			if k%5 == 0 {
				v = big
			}
			st.Update(k, Entry{Value: v, TS: proto.TS{Version: 2}, State: Invalid})
			st.Lookup(k / 2).SetState(Valid)
		}
	}()
	batch := make([]proto.Key, 3*prefetchBatch)
	for round := 0; round < 200; round++ {
		for i := range batch {
			batch[i] = proto.Key((round*len(batch) + i*13) % (2 * keys))
		}
		st.Prefetch(batch)
	}
	wg.Wait()
	for k := proto.Key(0); k < keys; k++ {
		if st.Lookup(k) == nil {
			t.Fatalf("key %d lost", k)
		}
	}
	if st.Lookup(keys) != nil {
		t.Fatal("Prefetch indexed an absent key")
	}
}
