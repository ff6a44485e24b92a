package kvs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

func TestGetMissing(t *testing.T) {
	s := New(4)
	if _, ok := s.Get(42); ok {
		t.Fatal("missing key reported present")
	}
	if s.Len() != 0 {
		t.Fatal("empty store has non-zero len")
	}
}

func TestUpdateThenGet(t *testing.T) {
	s := New(4)
	e := Entry{Value: proto.Value("hello"), TS: proto.TS{Version: 2, CID: 1}, State: Valid, RMW: true}
	s.Update(7, e)
	got, ok := s.Get(7)
	if !ok {
		t.Fatal("key missing after update")
	}
	if string(got.Value) != "hello" || got.TS != e.TS || got.State != Valid || !got.RMW {
		t.Fatalf("got %+v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len=%d", s.Len())
	}
}

func TestSetState(t *testing.T) {
	s := New(4)
	s.SetState(1, Valid) // absent: no-op, no panic
	s.Update(1, Entry{Value: proto.Value("v"), TS: proto.TS{Version: 4}, State: Invalid})
	s.SetState(1, Valid)
	got, _ := s.Get(1)
	if got.State != Valid || string(got.Value) != "v" || got.TS.Version != 4 {
		t.Fatalf("SetState clobbered entry: %+v", got)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	s := New(1)
	s.Update(1, Entry{Value: proto.Value("a"), TS: proto.TS{Version: 1}, State: Valid})
	s.Update(1, Entry{Value: proto.Value("b"), TS: proto.TS{Version: 3}, State: Invalid})
	got, _ := s.Get(1)
	if string(got.Value) != "b" || got.TS.Version != 3 || got.State != Invalid {
		t.Fatalf("got %+v", got)
	}
	if s.Len() != 1 {
		t.Fatal("overwrite grew the store")
	}
}

func TestKeyStateStrings(t *testing.T) {
	for st, want := range map[KeyState]string{
		Valid: "Valid", Invalid: "Invalid", Write: "Write", Replay: "Replay",
		Trans: "Trans", KeyState(99): "KeyState(?)",
	} {
		if st.String() != want {
			t.Fatalf("%d.String()=%q", st, st.String())
		}
	}
}

func TestRange(t *testing.T) {
	s := New(8)
	for i := proto.Key(0); i < 100; i++ {
		s.Update(i, Entry{Value: proto.Value{byte(i)}, TS: proto.TS{Version: uint32(i)}})
	}
	seen := make(map[proto.Key]bool)
	s.Range(func(k proto.Key, sl *Slot) bool {
		e, _ := sl.Load()
		if e.TS.Version != uint32(k) {
			t.Fatalf("entry mismatch for %d: %+v", k, e)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("ranged %d/100", len(seen))
	}
	// Early stop.
	n := 0
	s.Range(func(proto.Key, *Slot) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

// One writer per key mutating, many readers: every read must observe a
// consistent (value, ts) pair — the CRCW guarantee the protocol relies on.
func TestConcurrentReadersSeeConsistentRecords(t *testing.T) {
	s := New(16)
	const keys = 8
	const versions = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: one goroutine per key (single-writer discipline).
	for k := proto.Key(0); k < keys; k++ {
		wg.Add(1)
		go func(k proto.Key) {
			defer wg.Done()
			for v := uint32(1); v <= versions; v++ {
				val := make(proto.Value, 8)
				binary.LittleEndian.PutUint64(val, uint64(v))
				st := Valid
				if v%2 == 0 {
					st = Invalid
				}
				s.Update(k, Entry{Value: val, TS: proto.TS{Version: v}, State: st})
			}
		}(k)
	}

	// Readers: verify value matches TS in every observed snapshot.
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := proto.Key(0); k < keys; k++ {
					e, ok := s.Get(k)
					if !ok {
						continue
					}
					got := binary.LittleEndian.Uint64(e.Value)
					if got != uint64(e.TS.Version) {
						select {
						case errs <- fmt.Errorf("torn read: val=%d ts=%d", got, e.TS.Version):
						default:
						}
						return
					}
					wantState := Valid
					if e.TS.Version%2 == 0 {
						wantState = Invalid
					}
					if e.State != wantState {
						select {
						case errs <- fmt.Errorf("state/ts mismatch: %v ts=%d", e.State, e.TS.Version):
						default:
						}
						return
					}
				}
			}
		}()
	}

	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for k := proto.Key(0); k < keys; k++ {
		for {
			e, ok := s.Get(k)
			if ok && e.TS.Version == versions {
				break
			}
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// Property: a store behaves like a map for sequential updates.
func TestStoreMatchesMapModel(t *testing.T) {
	type op struct {
		Key proto.Key
		Ver uint32
	}
	f := func(ops []op) bool {
		s := New(4)
		model := make(map[proto.Key]uint32)
		for _, o := range ops {
			k := o.Key % 32
			s.Update(k, Entry{TS: proto.TS{Version: o.Ver}, State: Valid})
			model[k] = o.Ver
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			e, ok := s.Get(k)
			if !ok || e.TS.Version != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, n := range []int{0, 1, 3, 16, 17} {
		s := New(n)
		// All keys must route to a valid shard.
		for k := proto.Key(0); k < 1000; k++ {
			s.Update(k, Entry{State: Valid})
		}
		if s.Len() != 1000 {
			t.Fatalf("shards=%d len=%d", n, s.Len())
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := New(64)
	for k := proto.Key(0); k < 1<<16; k++ {
		s.Update(k, Entry{Value: make(proto.Value, 32), State: Valid})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := proto.Key(0)
		for pb.Next() {
			k = (k + 7919) & (1<<16 - 1)
			s.Get(k)
		}
	})
}

func BenchmarkUpdate(b *testing.B) {
	s := New(64)
	e := Entry{Value: make(proto.Value, 32), State: Valid}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(proto.Key(i&(1<<16-1)), e)
	}
}

// TestSlotHandleAndKeyedViewsAgree: the writer-side handle and the keyed
// methods are two views of the same slot — what one publishes the other
// observes — including for a key the handle creates, and a nil handle
// behaves like a missing key. Readers hammer both read paths meanwhile; run
// under -race this is also the proof that handle writes publish safely.
func TestSlotHandleAndKeyedViewsAgree(t *testing.T) {
	s := New(8)
	const k = proto.Key(7)

	if sl := s.Lookup(k); sl != nil {
		t.Fatalf("Lookup of a missing key = %p, want nil", sl)
	}
	var none *Slot
	if _, ok := none.Load(); ok {
		t.Fatal("nil handle Load reports an entry")
	}
	none.SetState(Valid) // no-op, must not panic

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, get := range []func(proto.Key) (Entry, bool){s.Get, s.GetRetained} {
					if e, ok := get(k); ok && len(e.Value) != int(e.TS.Version) {
						t.Errorf("torn entry: %d-byte value at version %d", len(e.Value), e.TS.Version)
						return
					}
				}
			}
		}()
	}

	sl := s.Ensure(k)
	if _, ok := sl.Load(); ok {
		t.Fatal("fresh slot reports an entry before its first Update")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("keyed Get sees an entry in a slot Ensure only created")
	}
	if s.Ensure(k) != sl || s.Lookup(k) != sl {
		t.Fatal("Ensure/Lookup resolved a second slot for the key")
	}
	for v := uint32(1); v <= 200; v++ {
		val := make(proto.Value, v)
		if v%2 == 1 {
			// Handle writes, keyed reads.
			sl.Update(Entry{Value: val, TS: proto.TS{Version: v}, State: Invalid})
			if e, ok := s.GetRetained(k); !ok || e.TS.Version != v || e.State != Invalid {
				t.Fatalf("keyed GetRetained after handle Update(v%d): %+v %v", v, e, ok)
			}
			sl.SetState(Valid)
			if e, _ := s.Get(k); e.State != Valid || e.TS.Version != v {
				t.Fatalf("keyed Get after handle SetState(v%d): %+v", v, e)
			}
		} else {
			// Keyed writes, handle reads.
			s.Update(k, Entry{Value: val, TS: proto.TS{Version: v}, State: Write})
			if e, ok := sl.Load(); !ok || e.TS.Version != v || e.State != Write {
				t.Fatalf("handle Load after keyed Update(v%d): %+v %v", v, e, ok)
			}
			s.SetState(k, Valid)
			if e, _ := sl.Load(); e.State != Valid || e.TS.Version != v {
				t.Fatalf("handle Load after keyed SetState(v%d): %+v", v, e)
			}
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != 1 {
		t.Fatalf("store holds %d keys, want 1", s.Len())
	}
}
