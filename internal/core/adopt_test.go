package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// ownedINV builds an INV whose value is a zero-copy sub-slice of a pooled
// frame buffer, exactly as wings decode produces: the INV holds one
// reference on the buffer (here the Get reference itself).
func ownedINV(pool *refbuf.Pool, key proto.Key, ver uint32, val []byte) INV {
	fb := pool.Get(len(val))
	copy(fb.Bytes(), val)
	b := fb.Bytes()
	return INV{
		Epoch: 1, Key: key, TS: proto.TS{Version: ver},
		Value: proto.Value(b[0:len(val):len(val)]),
		Owner: fb,
	}
}

func newFollower(t testing.TB, st *kvs.Store) *Hermes {
	t.Helper()
	return New(Config{
		ID: 1, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}},
		Env: benchEnv{}, Store: st,
	})
}

// bigVal is a value above kvs.InlineCap: the only size whose INV frame the
// store adopts (smaller values are copied into the slot).
const bigVal = "hello-zero-copy: an INV value above the inline cap"

// TestINVAdoptZeroCopy pins the zero-copy regime above the inline cap: an
// owner-backed INV's value is adopted into the store without a copy (the
// published entry aliases the frame buffer), and replacing the entry
// releases the frame back to its pool.
func TestINVAdoptZeroCopy(t *testing.T) {
	st := kvs.New(16)
	h := newFollower(t, st)
	pool := refbuf.NewPool()

	inv := ownedINV(pool, 7, 2, []byte(bigVal))
	fb := inv.Owner
	h.Deliver(0, inv)

	e, ok := st.Get(7)
	if !ok || string(e.Value) != bigVal {
		t.Fatalf("entry after adopt: %+v ok=%v", e, ok)
	}
	if &e.Value[0] != &fb.Bytes()[0] {
		t.Fatal("adopted value was copied; want it to alias the frame buffer")
	}
	if e.Owner != fb {
		t.Fatalf("entry owner = %p, want the frame buffer %p", e.Owner, fb)
	}
	if got := fb.Refs(); got != 1 {
		t.Fatalf("frame refs after adopt = %d, want 1 (held by the store)", got)
	}

	// A higher-timestamped INV replaces the entry; the old frame's reference
	// must drop to zero (released back to the pool).
	h.Deliver(0, ownedINV(pool, 7, 4, []byte("successor")))
	if got := fb.Refs(); got != 0 {
		t.Fatalf("replaced frame refs = %d, want 0", got)
	}
	if e, _ := st.Get(7); string(e.Value) != "successor" {
		t.Fatalf("entry after replacement: %q", e.Value)
	}
}

// TestINVDropPathsReleaseOwner covers the three non-adopt paths of onINV —
// stale epoch, outranked/duplicate timestamp, and the FRMW-ACK reply — each
// of which must spend the INV's frame reference instead of leaking it. The
// values are above the inline cap, where the apply path adopts the frame.
func TestINVDropPathsReleaseOwner(t *testing.T) {
	st := kvs.New(16)
	h := newFollower(t, st)
	pool := refbuf.NewPool()

	// Seed the key at version 6 so lower timestamps lose.
	h.Deliver(0, ownedINV(pool, 9, 6, []byte(bigVal)))

	t.Run("stale epoch", func(t *testing.T) {
		inv := ownedINV(pool, 9, 8, []byte(bigVal))
		inv.Epoch = 99
		fb := inv.Owner
		h.Deliver(0, inv)
		if got := fb.Refs(); got != 0 {
			t.Fatalf("refs after stale-epoch drop = %d, want 0", got)
		}
	})
	t.Run("outranked duplicate", func(t *testing.T) {
		inv := ownedINV(pool, 9, 4, []byte(bigVal))
		fb := inv.Owner
		h.Deliver(0, inv)
		if got := fb.Refs(); got != 0 {
			t.Fatalf("refs after outranked drop = %d, want 0", got)
		}
	})
	t.Run("FRMW-ACK reply", func(t *testing.T) {
		inv := ownedINV(pool, 9, 5, []byte(bigVal))
		inv.RMW = true
		fb := inv.Owner
		h.Deliver(0, inv)
		if got := fb.Refs(); got != 0 {
			t.Fatalf("refs after FRMW-ACK drop = %d, want 0", got)
		}
	})
}

// TestSmallINVFrameRecyclesInTurn: a value of at most kvs.InlineCap bytes is
// copied into the slot, so the INV's frame reference is spent inside the
// turn that applies it — the frame goes back to its pool at once instead of
// staying pinned by the stored value — and the stored copy survives the
// frame's reuse.
func TestSmallINVFrameRecyclesInTurn(t *testing.T) {
	st := kvs.New(16)
	h := newFollower(t, st)
	pool := refbuf.NewPool()

	inv := ownedINV(pool, 5, 2, bytes.Repeat([]byte{'s'}, kvs.InlineCap))
	fb := inv.Owner
	h.Deliver(0, inv)
	if got := fb.Refs(); got != 0 {
		t.Fatalf("frame refs after applying a %d B INV = %d, want 0", kvs.InlineCap, got)
	}
	for i := range fb.Bytes() {
		fb.Bytes()[i] = 0xEE // what the frame's next user would do
	}
	e, ok := st.Get(5)
	if !ok || !bytes.Equal(e.Value, bytes.Repeat([]byte{'s'}, kvs.InlineCap)) || e.Owner != nil || e.State != kvs.Invalid {
		t.Fatalf("entry after a small INV: %+v ok=%v", e, ok)
	}
}

// TestChunkRespDoesNotAliasStore is the chunk-transfer aliasing regression:
// onChunkReq must copy-or-retain owner-backed values at the boundary. Without
// that, the ChunkResp ships the live store slice; once the entry is replaced
// and the frame buffer recycled, the learner would receive whatever the
// pool's next frame holds.
func TestChunkRespDoesNotAliasStore(t *testing.T) {
	st := kvs.New(16)
	h := newFollower(t, st)
	pool := refbuf.NewPool()

	inv := ownedINV(pool, 3, 2, []byte("chunked-value"))
	fb := inv.Owner
	h.Deliver(0, inv)
	// Validate so Range reports it Valid (state transfer cares either way).
	h.Deliver(0, VAL{Epoch: 1, Key: 3, TS: proto.TS{Version: 2}})

	// Capture the outgoing ChunkResp instead of dropping it.
	var resp ChunkResp
	h.env = captureEnv{onSend: func(msg any) {
		if r, ok := msg.(ChunkResp); ok {
			resp = r
		}
	}}
	h.onChunkReq(2, ChunkReq{Epoch: 1, Cursor: 0, MaxKeys: 16})
	if len(resp.Recs) != 1 || string(resp.Recs[0].Value) != "chunked-value" {
		t.Fatalf("chunk response: %+v", resp)
	}

	// Replace the entry (frame released, refs hit zero) and scribble the
	// recycled frame buffer — what an unrelated inbound frame would do.
	h.env = benchEnv{}
	h.Deliver(0, ownedINV(pool, 3, 4, []byte("newer")))
	if fb.Refs() != 0 {
		t.Fatalf("frame still pinned after replacement: refs=%d", fb.Refs())
	}
	scribble := pool.Get(32)
	for i := range scribble.Bytes() {
		scribble.Bytes()[i] = 0xEE
	}

	if string(resp.Recs[0].Value) != "chunked-value" {
		t.Fatalf("chunk record mutated after frame recycle: %q", resp.Recs[0].Value)
	}
	scribble.Release()
}

// captureEnv records sends for boundary tests.
type captureEnv struct{ onSend func(msg any) }

func (captureEnv) Now() time.Duration           { return 0 }
func (e captureEnv) Send(_ proto.NodeID, m any) { e.onSend(m) }
func (captureEnv) Complete(proto.Completion)    {}

// TestINVAdoptAllocsSizeIndependent: above the inline cap, the
// decode→store-adopt path performs zero per-value-byte allocations. The
// irreducible steady-state allocations (the published *Entry and the ACK's
// interface boxing into Env.Send) are size-independent, so the assertion is
// equality across a 64× value-size spread — a copy anywhere in the path
// would show up as extra allocations at 4 KiB.
func TestINVAdoptAllocsSizeIndependent(t *testing.T) {
	measure := func(valSize int) float64 {
		st := kvs.New(16)
		h := newFollower(t, st)
		pool := refbuf.NewPool()
		version := uint32(0)
		deliver := func() {
			version += 2
			val := make([]byte, valSize) // outside the measured path in real decode
			h.Deliver(0, ownedINV(pool, 11, version, val))
		}
		for i := 0; i < 32; i++ {
			deliver() // warm the pool, the store slot, and the meta-free path
		}
		return testing.AllocsPerRun(200, deliver)
	}
	small := measure(64)
	large := measure(64 * 64)
	// The make() above is one alloc in both runs; subtract nothing, just
	// compare. Round to absorb sync.Pool's occasional per-P cache miss.
	if math.Round(small) != math.Round(large) {
		t.Fatalf("adopt allocs scale with value size: %v at 64B vs %v at 4KiB", small, large)
	}
	if small > 4.5 {
		t.Fatalf("adopt path allocates %v per op; want the irreducible few", small)
	}
}

// BenchmarkINVAdopt measures the owner-backed INV receive path end to end
// (onINV → applyINV → store adoption), the companion to
// BenchmarkReadLocalParallel on the write side of the zero-copy value path.
// Run with -benchmem: B/op must not scale with the value size.
func BenchmarkINVAdopt(b *testing.B) {
	for _, size := range []int{32, 4096} {
		b.Run(map[int]string{32: "32B", 4096: "4KiB"}[size], func(b *testing.B) {
			st := kvs.New(16)
			h := newFollower(b, st)
			pool := refbuf.NewPool()
			val := bytes.Repeat([]byte{0xAB}, size)
			version := uint32(0)
			for i := 0; i < 16; i++ {
				version += 2
				h.Deliver(0, ownedINV(pool, 13, version, val))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				version += 2
				fb := pool.Get(size)
				bb := fb.Bytes()
				copy(bb, val)
				h.Deliver(0, INV{
					Epoch: 1, Key: 13, TS: proto.TS{Version: version},
					Value: proto.Value(bb[0:size:size]), Owner: fb,
				})
			}
		})
	}
}
