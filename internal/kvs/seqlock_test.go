package kvs

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/refbuf"
)

// TestStateWordStress runs the protocol's write shape on one hot key — Update
// to Invalid at a new timestamp, commit, SetState(Valid) — against readers on
// both pinning read paths, GetRetained and GetValidInto. Each value opens
// with the version that wrote it, so the fast path's read, which returns no
// timestamp, is checked like the other. A Valid snapshot must never be newer
// than the last commit (a word published ahead of its entry, or a state flip
// landing on the wrong entry, would show one), an owned value must stay
// pinned and intact while the reader holds it, and every reference must be
// back in the pool at the end. Run under -race it also checks the word's happens-before edges.
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
		binary.LittleEndian.PutUint32(b, v)
		for i := 4; i < len(b); i++ {
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
		if binary.LittleEndian.Uint32(e.Value) != e.TS.Version {
			bad.Add(1)
		}
		for _, c := range e.Value[4:] {
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
			var buf [InlineCap]byte
			for !stop.Load() {
				if r%2 == 0 {
					if e, ok := st.GetRetained(key); ok {
						check(e)
					}
				} else if n, v, owner, ok := st.GetValidInto(key, &buf); ok {
					if n != 0 || len(v) != valLen {
						bad.Add(1) // every value in this test is entry-held
						continue
					}
					check(Entry{Value: v, TS: proto.TS{Version: binary.LittleEndian.Uint32(v)}, State: Valid, Owner: owner})
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

// TestGetValidIntoRefuses: the fast path's read reports a missing key as the
// implicit Valid initial state, serves a Valid key, and refuses a non-Valid
// one without pinning its owner.
func TestGetValidIntoRefuses(t *testing.T) {
	st := New(4)
	var buf [InlineCap]byte
	if n, v, owner, ok := st.GetValidInto(3, &buf); !ok || n != 0 || v != nil || owner != nil {
		t.Fatalf("missing key: n=%d v=%v owner=%v ok=%v, want the empty value", n, v, owner, ok)
	}
	// Above InlineCap, so the value is entry-held and its owner pinned.
	val := bytes.Repeat([]byte("v"), InlineCap+1)
	fb := refbuf.NewPool().Get(len(val))
	copy(fb.Bytes(), val)
	st.Update(3, Entry{Value: fb.Bytes()[0:len(val):len(val)], TS: proto.TS{Version: 2}, State: Invalid, Owner: fb})
	if _, _, _, ok := st.GetValidInto(3, &buf); ok {
		t.Fatal("GetValidInto served an Invalid key")
	}
	if got := fb.Refs(); got != 1 {
		t.Fatalf("refs after a refused read = %d, want 1", got)
	}
	st.SetState(3, Valid)
	n, v, owner, ok := st.GetValidInto(3, &buf)
	if !ok || n != 0 || !bytes.Equal(v, val) || owner != fb || fb.Refs() != 2 {
		t.Fatalf("Valid key: n=%d v=%q owner=%v ok=%v refs=%d", n, v, owner, ok, fb.Refs())
	}
	owner.Release()
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

// TestStoreBytesPerKey bounds what a stored key costs, measured as live heap
// after a collection: index, slots, and whatever the record holds besides —
// here a 32 B value written through Update, the shape of every workload but
// large-value. A store shard's table is at most 4/3 over its keys (then
// doubles), a slot is one 64 B cache line holding a value of at most
// InlineCap bytes with no Entry or value slice beside it, and a shard wastes
// at most one partial 8-slot chunk, so a store holding a few keys per shard
// (mixed-hot's shape) pays little for it. The 16 B slot that pointed at a
// heap Entry and value cost 133.8 B/key at 32768 keys and 140.7 at 512
// (go1.24, amd64); the limits hold the store well below the first and no
// worse than the second.
func TestStoreBytesPerKey(t *testing.T) {
	for _, tc := range []struct {
		keys  int
		limit float64
	}{{32768, 115}, {512, 140}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := New(64)
		for k := 0; k < tc.keys; k++ {
			st.Update(proto.Key(k)*0x9e3779b97f4a7c15, Entry{Value: make(proto.Value, 32), TS: proto.TS{Version: 2}, State: Valid})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perKey := float64(after.HeapAlloc-before.HeapAlloc) / float64(tc.keys)
		runtime.KeepAlive(st)
		t.Logf("%d keys: %.1f B/key", tc.keys, perKey)
		if perKey > tc.limit {
			t.Errorf("%d keys over New(64): %.1f B/key, want <= %.1f", tc.keys, perKey, tc.limit)
		}
	}
}

// TestSlotsAreCacheLineAligned: a slot is one cache line, so a reader's
// word, meta and value loads touch one line only if every slot starts on a
// 64 B boundary — in every chunk Ensure allocates, whether a shard holds one
// chunk or hundreds.
func TestSlotsAreCacheLineAligned(t *testing.T) {
	if n := unsafe.Sizeof(Slot{}); n != 64 {
		t.Fatalf("Slot is %d bytes, want 64", n)
	}
	for _, shards := range []int{1, 64} {
		st := New(shards)
		for k := proto.Key(0); k < 64*chunkSlots; k++ {
			if a := uintptr(unsafe.Pointer(st.Ensure(k))); a%64 != 0 {
				t.Fatalf("New(%d), key %d: slot at %#x, not 64 B aligned", shards, k, a)
			}
		}
	}
}

// TestInlineWordStress is TestStateWordStress on inline values: one hot key,
// Update to Invalid at a new timestamp, commit, SetState(Valid), with values
// of 8 to 32 bytes whose every 8-byte word holds the version that wrote it
// and whose length follows from that version. It runs once per read path —
// GetRetained, GetValidInto — with every reader on that path. A
// torn read (words from two versions, a length from another version than
// the words, a timestamp that does not match the value) or a Valid read
// newer than the last commit fails it.
func TestInlineWordStress(t *testing.T) {
	size := func(v uint64) int { return 8 * int(1+v%4) }
	// version decodes a read value, -1 when it is torn.
	version := func(val []byte) int64 {
		if len(val) < 8 {
			return -1
		}
		v := binary.LittleEndian.Uint64(val)
		if len(val) != size(v) {
			return -1
		}
		for i := 8; i < len(val); i += 8 {
			if binary.LittleEndian.Uint64(val[i:]) != v {
				return -1
			}
		}
		return int64(v)
	}
	// Each read path returns the value, whether it claims Valid, and the
	// timestamp it reports (-1: none).
	paths := []struct {
		name string
		read func(st *Store, k proto.Key, buf *[InlineCap]byte) (val []byte, valid bool, ts int64, ok bool)
	}{
		{"GetRetained", func(st *Store, k proto.Key, _ *[InlineCap]byte) ([]byte, bool, int64, bool) {
			e, ok := st.GetRetained(k)
			return e.Value, e.State == Valid, int64(e.TS.Version), ok
		}},
		{"GetValidInto", func(st *Store, k proto.Key, buf *[InlineCap]byte) ([]byte, bool, int64, bool) {
			n, v, owner, ok := st.GetValidInto(k, buf)
			if v != nil || owner != nil {
				return nil, true, -1, ok // not inline: reported as torn
			}
			return buf[:n], true, -1, ok
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			st := New(4)
			const key = proto.Key(11)
			const writes = 20000
			put := func(v uint32, state KeyState) {
				var b [InlineCap]byte
				for i := 0; i < InlineCap; i += 8 {
					binary.LittleEndian.PutUint64(b[i:], uint64(v))
				}
				st.Update(key, Entry{Value: b[:size(uint64(v))], TS: proto.TS{Version: v}, State: state})
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
			for r := 0; r < max(runtime.GOMAXPROCS(0), 4); r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf [InlineCap]byte
					for !stop.Load() {
						val, valid, ts, ok := path.read(st, key, &buf)
						if !ok {
							continue
						}
						v := version(val)
						if v < 0 || ts >= 0 && v != ts || valid && uint32(v) > committed.Load() {
							bad.Add(1)
						}
					}
				}()
			}
			wg.Wait()

			if n := bad.Load(); n > 0 {
				t.Fatalf("%d torn inline reads, or Valid reads newer than the last commit", n)
			}
			e, ok := st.Get(key)
			if !ok || e.State != Valid || e.TS.Version != writes || version(e.Value) != writes || e.Owner != nil {
				t.Fatalf("final entry: %+v ok=%v", e, ok)
			}
		})
	}
}

// TestInlineUpdateReleasesOwner: a value of at most InlineCap bytes is copied
// into the slot, so Update spends the owner it was handed at once; replacing
// an entry-held value by an inline one releases the entry's owner; and the
// views hand back private copies.
func TestInlineUpdateReleasesOwner(t *testing.T) {
	st := New(4)
	pool := refbuf.NewPool()
	big := pool.Get(InlineCap + 1)
	st.Update(1, Entry{Value: big.Bytes()[0 : InlineCap+1 : InlineCap+1], TS: proto.TS{Version: 2}, State: Valid, Owner: big})
	small := pool.Get(InlineCap)
	copy(small.Bytes(), "inline")
	st.Update(1, Entry{Value: small.Bytes()[0:6:6], TS: proto.TS{Version: 4, CID: 3}, State: Invalid, RMW: true, Owner: small})
	if big.Refs() != 0 || small.Refs() != 0 {
		t.Fatalf("refs after an inline update: replaced %d, adopted %d; want 0 and 0", big.Refs(), small.Refs())
	}
	e, ok := st.Get(1)
	if !ok || string(e.Value) != "inline" || e.TS != (proto.TS{Version: 4, CID: 3}) || e.State != Invalid || !e.RMW || e.Owner != nil {
		t.Fatalf("inline entry: %+v ok=%v", e, ok)
	}
	e.Value[0] = 'X'
	if h, ok := st.Lookup(1).Head(); !ok || h != (Head{TS: proto.TS{Version: 4, CID: 3}, State: Invalid, RMW: true}) {
		t.Fatalf("Head: %+v ok=%v", h, ok)
	}
	st.SetState(1, Valid)
	var buf [InlineCap]byte
	if n, v, owner, ok := st.GetValidInto(1, &buf); !ok || string(buf[:n]) != "inline" || v != nil || owner != nil {
		t.Fatalf("GetValidInto: %q v=%v owner=%v ok=%v", buf[:n], v, owner, ok)
	}
}

// TestInlineReadsAllocateNothing: the read-into door and the value-less Head
// of an inline key cost no allocation; the Entry views pay one, the copy.
func TestInlineReadsAllocateNothing(t *testing.T) {
	st := New(16)
	st.Update(5, Entry{Value: make(proto.Value, InlineCap), TS: proto.TS{Version: 2}, State: Valid})
	sl := st.Lookup(5)
	var buf [InlineCap]byte
	if n := testing.AllocsPerRun(1000, func() {
		if n, _, _, ok := st.GetValidInto(5, &buf); !ok || n != InlineCap {
			t.Fatal("GetValidInto missed a Valid inline key")
		}
		if h, ok := sl.Head(); !ok || h.TS.Version != 2 {
			t.Fatal("Head missed the key")
		}
	}); n != 0 {
		t.Fatalf("GetValidInto + Head allocate %.1f/op; want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { st.GetRetained(5) }); n != 1 {
		t.Fatalf("GetRetained of an inline key allocates %.1f/op; want 1 (the copy)", n)
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
		st.Range(func(k proto.Key, _ *Slot) bool {
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
