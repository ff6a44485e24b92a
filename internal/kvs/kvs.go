// Package kvs implements the in-memory key-value store substrate that
// HermesKV builds on (paper §4.1): a sharded hash table supporting
// concurrent-read / concurrent-write (CRCW) access with lock-free readers,
// in the style of ccKVS/MICA. The paper's C implementation uses seqlocks for
// torn-read detection; Go cannot express seqlock field reads without data
// races, so this package provides the same semantics — single writer per
// key, readers never block writers, readers always observe a consistent
// record — via RCU-style atomic publication of immutable records. The
// concurrency structure the evaluation depends on is preserved: local
// linearizable reads are served on the read path without entering the
// protocol's critical path, by checking State==Valid on the loaded record.
//
// Beyond the raw value, every entry carries the Hermes per-key metadata the
// read path needs: the logical timestamp, the replica state and the RMW flag
// of the last update (used by write replays, §3.1/§3.6).
package kvs

import (
	"sync"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/refbuf"
)

// KeyState is the Hermes per-key replica state (paper §3.2). It lives here
// rather than in the protocol package because the store is what the
// lock-free read path inspects.
type KeyState uint8

const (
	// Valid: the local value is the most recent committed one; reads may be
	// served locally.
	Valid KeyState = iota
	// Invalid: a write is in flight elsewhere; reads must stall.
	Invalid
	// Write: this replica coordinates an in-flight write to the key.
	Write
	// Replay: this replica replays a (possibly failed) write it learned of.
	Replay
	// Trans: a coordinator's in-flight update was invalidated by a
	// higher-timestamp concurrent write; tracked so the coordinator can
	// still report its own write's completion (paper footnote 7).
	Trans
)

func (s KeyState) String() string {
	switch s {
	case Valid:
		return "Valid"
	case Invalid:
		return "Invalid"
	case Write:
		return "Write"
	case Replay:
		return "Replay"
	case Trans:
		return "Trans"
	default:
		return "KeyState(?)"
	}
}

// Readable reports whether a local linearizable read may be served.
func (s KeyState) Readable() bool { return s == Valid }

// Entry is a snapshot of one key's replicated record. Entries are immutable
// once published; Value must not be mutated after Update.
type Entry struct {
	Value proto.Value
	TS    proto.TS
	State KeyState
	RMW   bool // RMW_flag of the last update (paper §3.6)

	// Owner, when non-nil, is the pooled wire-frame buffer Value aliases —
	// the zero-copy adoption path: the published entry holds exactly one
	// reference, transferred from the INV that carried the value. Update
	// releases the replaced entry's reference after publishing the new one,
	// so lock-free readers that pinned the old buffer (GetRetained) always
	// see a republished slot before the count can drop. Nil means Value is
	// a private immutable heap slice.
	Owner *refbuf.Buf
}

// Store is the sharded CRCW store.
type Store struct {
	shards []shard
	mask   uint64
}

type shard struct {
	mu sync.RWMutex // guards the index map only
	m  map[proto.Key]*Slot
}

// Slot holds the atomically published current record for one key. The
// protocol goroutine is the only writer per key (single-writer discipline,
// as in the paper's per-worker key ownership); readers Load concurrently.
//
// A *Slot is also the writer's handle on the key: Lookup or Ensure resolves
// it once — the only step that touches the index map and its lock — and
// Load, Update and SetState then act on it directly, so a handler turn that
// reads, installs and revalidates one key pays for one lookup. Slots are
// never removed from the store, so a handle stays valid for the store's
// lifetime and may be cached across turns. The keyed Store methods are the
// same operations with the lookup folded in; both views observe each other.
type Slot struct {
	p atomic.Pointer[Entry]
}

// New returns a Store with the given shard count (rounded up to a power of
// two; minimum 1).
func New(shards int) *Store {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[proto.Key]*Slot)
	}
	return s
}

func (s *Store) shardOf(k proto.Key) *shard {
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &s.shards[h&s.mask]
}

// Lookup resolves k's slot, nil when the key has never been written. A nil
// *Slot is a usable handle: Load reports the key absent and SetState is a
// no-op, exactly as the keyed methods treat a missing key.
func (s *Store) Lookup(k proto.Key) *Slot {
	sh := s.shardOf(k)
	sh.mu.RLock()
	sl := sh.m[k]
	sh.mu.RUnlock()
	return sl
}

// Ensure resolves k's slot, creating an empty one (Load reports absent until
// the first Update) when the key is new. The caller must be the key's single
// writer.
func (s *Store) Ensure(k proto.Key) *Slot {
	if sl := s.Lookup(k); sl != nil {
		return sl
	}
	sh := s.shardOf(k)
	sh.mu.Lock()
	sl := sh.m[k]
	if sl == nil {
		sl = &Slot{}
		sh.m[k] = sl
	}
	sh.mu.Unlock()
	return sl
}

// Load returns a consistent snapshot of the slot's entry and whether one has
// been published.
func (sl *Slot) Load() (Entry, bool) {
	if sl == nil {
		return Entry{}, false
	}
	e := sl.p.Load()
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// Get returns a consistent snapshot of the key's entry and whether the key
// exists. Safe for any number of concurrent readers and one writer per key.
func (s *Store) Get(k proto.Key) (Entry, bool) {
	return s.Lookup(k).Load()
}

// Update installs a full entry for k (value, timestamp, state, rmw flag),
// adopting e.Owner's reference if set. The caller must be the key's single
// writer. The replaced entry's buffer reference is released only after the
// new entry is published: a concurrent GetRetained that pinned the old
// buffer before the swap keeps it alive, and one that loses the
// TryRetain race is guaranteed to observe the new entry on reload.
func (s *Store) Update(k proto.Key, e Entry) { s.Ensure(k).Update(e) }

// Update is Store.Update on a resolved slot (from Ensure: a nil handle has
// no slot to publish into).
func (sl *Slot) Update(e Entry) {
	old := sl.p.Swap(&e)
	if old != nil && old.Owner != nil {
		// Each published entry holds its own reference, so this release is
		// unconditional even when old and new alias the same frame buffer.
		old.Owner.Release()
	}
}

// SetState transitions only the replica state of k (e.g. Invalid -> Valid on
// a VAL message) leaving value and timestamp untouched. No-op if the key is
// absent. The caller must be the key's single writer. The republished entry
// inherits the old one's buffer reference — a transfer, not a new retain,
// so no release happens here.
func (s *Store) SetState(k proto.Key, st KeyState) { s.Lookup(k).SetState(st) }

// SetState is Store.SetState on a resolved slot.
func (sl *Slot) SetState(st KeyState) {
	if sl == nil {
		return
	}
	cur := sl.p.Load()
	if cur == nil {
		return
	}
	e := *cur
	e.State = st
	sl.p.Store(&e)
}

// GetRetained is Get for readers that will use the value outside the key's
// event-loop turn: when the entry's value aliases a pooled frame buffer,
// the buffer comes back pinned (one reference the caller must Release when
// done with the bytes). An owner-less entry needs no pin — its value is
// immutable heap memory — and returns Owner nil.
//
// The pin protocol: TryRetain the loaded entry's buffer, then re-load the
// slot and require the same entry. Update releases a replaced entry's
// reference only after publishing its successor, so a successful retain on
// a stale entry is always caught by the pointer re-check (the transient
// extra reference is balance-neutral), and a failed TryRetain means a
// fresher entry is already published.
func (s *Store) GetRetained(k proto.Key) (Entry, bool) {
	sl := s.Lookup(k)
	if sl == nil {
		return Entry{}, false
	}
	for {
		ep := sl.p.Load()
		if ep == nil {
			return Entry{}, false
		}
		if ep.Owner == nil {
			return *ep, true
		}
		if ep.Owner.TryRetain() {
			if sl.p.Load() == ep {
				return *ep, true
			}
			ep.Owner.Release()
		}
	}
}

// Len returns the number of keys stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls fn for a snapshot of every entry; used by shadow-replica state
// transfer (paper §3.4 Recovery) to read chunks of the datastore. Iteration
// order is unspecified; fn must not call back into the Store. Returns early
// if fn returns false.
func (s *Store) Range(fn func(k proto.Key, e Entry) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		keys := make([]proto.Key, 0, len(sh.m))
		slots := make([]*Slot, 0, len(sh.m))
		for k, sl := range sh.m {
			keys = append(keys, k)
			slots = append(slots, sl)
		}
		sh.mu.RUnlock()
		for j, sl := range slots {
			if e := sl.p.Load(); e != nil {
				if !fn(keys[j], *e) {
					return
				}
			}
		}
	}
}
