// Package kvs implements the in-memory key-value store substrate that
// HermesKV builds on (paper §4.1): a sharded hash table supporting
// concurrent-read / concurrent-write (CRCW) access with lock-free readers,
// in the style of ccKVS/MICA.
//
// Each store shard is an open-addressing index (linear probing, load at most
// 3/4) whose entries hold a key and a pointer to its Slot inline. The table is
// published through an atomic pointer, so readers probe it without a lock;
// inserts and table doubling take the shard's mutex. Slots live by value in
// chunks that never move, so a *Slot handle stays valid for the store's
// lifetime.
//
// A slot is the paper's seqlocked record, one 64-byte cache line built only
// from sync/atomic words:
//
//	w       state word: the key's replica State, a publication-in-progress
//	        ("busy") bit and a version
//	p       nil, or a pointer to an immutable Entry holding a value larger
//	        than InlineCap (and the pooled frame buffer it aliases, if any)
//	meta    the last update's timestamp and RMW flag, and the length of an
//	        inline value
//	val[4]  an inline value of at most InlineCap bytes, little-endian
//
// The key's single writer changes State with one atomic store of the word
// (SetState). Update sets the busy bit, stores the meta word and either the
// value words (p set to nil) or a new Entry pointer, then publishes the next
// version with the update's State. A reader loads the word, copies what it
// needs, and loads the word again: the copy is consistent iff the two words
// are equal and not busy. An inline value is therefore read as word → meta and
// value words → word, writing no shared memory; a larger value is read as
// word → entry → pin its owner → word. The lock-free local-read fast path
// (GetValidInto) refuses a busy or non-Valid word before touching
// the record, so local linearizable reads never enter the protocol's critical
// path and never spin.
//
// Reaching a cold key costs two dependent cache misses: the index entry, then
// the slot line it points to. Prefetch pays them for a batch of keys at once,
// MICA-style: one loop probes the index for every key, a second loads every
// found slot's state word. Within each loop the loads are independent, so the
// CPU keeps many misses in flight, and the turns that then act on the keys hit
// the cache. Nothing between two keys may be a locked instruction or a channel
// operation (which takes a lock): a locked instruction waits for every earlier
// load, so a pass interleaved with the inbox receives — prefetch a key, receive
// the next message — pays its misses one after another again.
package kvs

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"runtime"
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

// Entry is a snapshot of one key's replicated record: what Update takes and
// the views (Load, Get, GetRetained, Range) return. A slot
// publishes an Entry only for a value larger than InlineCap, and such an
// entry is immutable; Value must not be mutated after Update. A published
// entry's State is superseded by the slot's state word: readers always get
// the word's State in the snapshot they return.
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
	// see a changed state word before the count can drop. A value of at most
	// InlineCap bytes is copied into the slot instead, and Update releases
	// its Owner at once. Nil means Value is a private immutable heap slice.
	Owner *refbuf.Buf
}

// Store is the sharded CRCW store.
type Store struct {
	shards []shard
	mask   uint64
}

// shard is one segment of the store: an index readers probe lock-free and
// the slot chunks the index points into.
type shard struct {
	tab atomic.Pointer[table]
	mu  sync.Mutex // serializes inserts and doubling; readers never take it
	n   int        // keys indexed (guarded by mu)
	// free is the unused tail of the newest slot chunk (guarded by mu).
	// Chunks are never reallocated, so every handed-out *Slot stays put.
	free []Slot
}

// table is one published generation of a shard's index. Its length is a
// power of two and at most 3/4 full, so every probe meets an empty entry.
// Entries are only ever filled in, never cleared or moved, and a doubling
// publishes a fresh table, so a reader's snapshot never shows a key twice.
type table struct {
	shift uint // 64 - log2(len(ents)): a key's probe starts at hash >> shift
	ents  []indexEntry
}

// indexEntry maps a key to its slot. The inserter stores key before slot,
// and readers load slot before key: a non-nil slot means the key is final.
type indexEntry struct {
	key  atomic.Uint64
	slot atomic.Pointer[Slot]
}

// emptyTable is every shard's initial index: one empty entry, so a probe
// ends at once, and full for inserts, so the first one doubles it.
var emptyTable = &table{shift: 64, ents: make([]indexEntry, 1)}

// chunkSlots is the length of a slot chunk: 512 B, the largest allocation
// Go places on a size-class boundary without a malloc header in front, so
// every slot of every chunk starts a cache line. A shard holding a handful
// of keys wastes at most seven slots.
const chunkSlots = 8

// InlineCap is the largest value a slot holds inline: the four value words
// that fill its cache line after the state word, entry pointer and meta word.
// Larger values live in a published Entry.
const InlineCap = 32

// Slot holds the atomically published current record for one key. The
// protocol goroutine is the only writer per key (single-writer discipline,
// as in the paper's per-worker key ownership); readers Load concurrently.
//
// A *Slot is also the writer's handle on the key: Lookup or Ensure resolves
// it once — the only step that touches the index — and Head, Load, Update and
// SetState then act on it directly, so a handler turn that reads, installs
// and revalidates one key pays for one lookup. Slots are never removed from
// the store, so a handle stays valid for the store's lifetime and may be
// cached across turns. The keyed Store methods are the same operations with
// the lookup folded in; both views observe each other.
type Slot struct {
	// w is the state word:
	//
	//	bits 0..7   the key's KeyState
	//	bit 8       busy: an Update is rewriting the record
	//	bits 9..63  version, bumped by every Update and SetState
	//
	// Version 0 means nothing has been published yet.
	w atomic.Uint64
	// p is the Entry of a value larger than InlineCap, nil while the value
	// is inline.
	p atomic.Pointer[Entry]
	// meta packs the last update's timestamp, RMW flag and inline length:
	//
	//	bits 0..31   TS.Version
	//	bits 32..47  TS.CID
	//	bits 48..53  inline value length (0 when p is set)
	//	bit 54       RMW
	meta atomic.Uint64
	val  [InlineCap / 8]atomic.Uint64
	_    [8]byte // pads the slot to one 64-byte cache line
}

const (
	wordState   uint64 = 1<<8 - 1
	wordBusy    uint64 = 1 << 8
	wordLow            = wordState | wordBusy
	wordVersion        = wordLow + 1

	metaLenShift        = 48
	metaLen      uint64 = 63 << metaLenShift
	metaRMW      uint64 = 1 << 54
)

// nextWord is the word publishing state st one version after w.
func nextWord(w uint64, st KeyState) uint64 { return (w | wordLow) + 1 | uint64(st) }

// packMeta is the meta word of an update at ts carrying an n-byte inline
// value (n is 0 for an entry-held value).
func packMeta(ts proto.TS, rmw bool, n int) uint64 {
	m := uint64(ts.Version) | uint64(ts.CID)<<32 | uint64(n)<<metaLenShift
	if rmw {
		m |= metaRMW
	}
	return m
}

// Head is a record without its value: what a protocol turn reads to compare
// timestamps and states.
type Head struct {
	TS    proto.TS
	State KeyState
	RMW   bool
}

// headOf unpacks a meta word under the state word w.
func headOf(m, w uint64) Head {
	return Head{
		TS:    proto.TS{Version: uint32(m), CID: uint16(m >> 32)},
		State: KeyState(w & wordState),
		RMW:   m&metaRMW != 0,
	}
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
		s.shards[i].tab.Store(emptyTable)
	}
	return s
}

// hash mixes a key: its low bits pick the store shard, its high bits the
// probe start inside the shard's index.
func hash(k proto.Key) uint64 {
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// find probes t for k, nil when the key is not indexed.
func (t *table) find(h uint64, k proto.Key) *Slot {
	mask := uint64(len(t.ents) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		e := &t.ents[i]
		sl := e.slot.Load()
		if sl == nil || e.key.Load() == uint64(k) {
			return sl
		}
	}
}

// insert indexes k (absent from t) at the first empty entry of its probe.
func (t *table) insert(h uint64, k proto.Key, sl *Slot) {
	mask := uint64(len(t.ents) - 1)
	i := h >> t.shift
	for t.ents[i].slot.Load() != nil {
		i = (i + 1) & mask
	}
	t.ents[i].key.Store(uint64(k))
	t.ents[i].slot.Store(sl)
}

// Lookup resolves k's slot, nil when the key has never been written. A nil
// *Slot is a usable handle: Load reports the key absent and SetState is a
// no-op, exactly as the keyed methods treat a missing key.
func (s *Store) Lookup(k proto.Key) *Slot {
	h := hash(k)
	return s.shards[h&s.mask].tab.Load().find(h, k)
}

// prefetchBatch is how many keys one Prefetch pass resolves before it touches
// their slots: the size of the stack array the first pass fills.
const prefetchBatch = 32

// Prefetch resolves every key of keys and touches its slot, so that the turns
// which then act on those keys find the index entries and slot lines cached.
// It runs two loops per batch of keys: the first probes the index for each
// key, the second loads each found slot's state word and discards it. Keys
// never written stay absent: Prefetch never inserts, never spins, takes no
// lock and allocates nothing, and it has no effect a reader could observe. A
// lone key is left alone: with no other miss to overlap, the pass would only
// add a second probe to its turn's.
func (s *Store) Prefetch(keys []proto.Key) {
	if len(keys) < 2 {
		return
	}
	var slots [prefetchBatch]*Slot
	for len(keys) > 0 {
		n := min(len(keys), prefetchBatch)
		for i, k := range keys[:n] {
			slots[i] = s.Lookup(k)
		}
		Touch(slots[:n])
		keys = keys[n:]
	}
}

// Touch is Prefetch's second loop, for a caller whose keys span several
// stores and who resolved their slots with Lookup itself: it loads the state
// word of every non-nil slot and discards it.
func Touch(slots []*Slot) {
	for _, sl := range slots {
		if sl != nil {
			sl.w.Load()
		}
	}
}

// Ensure resolves k's slot, creating an empty one (Load reports absent until
// the first Update) when the key is new. The caller must be the key's single
// writer.
func (s *Store) Ensure(k proto.Key) *Slot {
	h := hash(k)
	sh := &s.shards[h&s.mask]
	if sl := sh.tab.Load().find(h, k); sl != nil {
		return sl
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tab.Load()
	if sl := t.find(h, k); sl != nil {
		return sl
	}
	if (sh.n+1)*4 > len(t.ents)*3 {
		t = sh.double(t)
	}
	if len(sh.free) == 0 {
		sh.free = make([]Slot, chunkSlots)
	}
	sl := &sh.free[0]
	sh.free = sh.free[1:]
	t.insert(h, k, sl)
	sh.n++
	return sl
}

// double publishes a copy of t at twice its size (at least 8 entries).
// Readers still probing t see it unchanged: it is never written again.
func (sh *shard) double(t *table) *table {
	n := max(2*len(t.ents), 8)
	nt := &table{shift: 64 - uint(bits.TrailingZeros(uint(n))), ents: make([]indexEntry, n)}
	for i := range t.ents {
		if sl := t.ents[i].slot.Load(); sl != nil {
			k := proto.Key(t.ents[i].key.Load())
			nt.insert(hash(k), k, sl)
		}
	}
	sh.tab.Store(nt)
	return nt
}

// Load returns a consistent snapshot of the slot's record and whether one has
// been published. An inline value comes back in a fresh copy.
func (sl *Slot) Load() (Entry, bool) {
	if sl == nil {
		return Entry{}, false
	}
	for {
		w := sl.w.Load()
		if w&wordBusy != 0 {
			runtime.Gosched() // the writer is between two stores
			continue
		}
		if e, ok, done := sl.read(w, false); done {
			return e, ok
		}
	}
}

// Head is Load without the value: the timestamp, State and RMW flag of the
// slot's record, and whether one has been published. It reads only the state
// and meta words, so it neither allocates nor touches an Entry.
func (sl *Slot) Head() (Head, bool) {
	if sl == nil {
		return Head{}, false
	}
	for {
		w := sl.w.Load()
		if w&wordBusy != 0 {
			runtime.Gosched()
			continue
		}
		m := sl.meta.Load()
		if sl.w.Load() != w {
			continue
		}
		return headOf(m, w), w >= wordVersion
	}
}

// Get returns a consistent snapshot of the key's entry and whether the key
// exists. Safe for any number of concurrent readers and one writer per key.
func (s *Store) Get(k proto.Key) (Entry, bool) {
	return s.Lookup(k).Load()
}

// Update installs a full entry for k (value, timestamp, state, rmw flag).
// The caller must be the key's single writer. A value of at most InlineCap
// bytes is copied into the slot and e.Owner, if set, released at once; a
// larger one is published as an Entry that adopts e.Owner's reference. The
// replaced entry's buffer reference is released only after the new word is
// published: a concurrent GetRetained that pinned the old buffer before the
// swap keeps it alive, and one that loses the TryRetain race is guaranteed
// to observe the new word on reload.
func (s *Store) Update(k proto.Key, e Entry) { s.Ensure(k).Update(e) }

// Update is Store.Update on a resolved slot (from Ensure: a nil handle has
// no slot to publish into).
func (sl *Slot) Update(e Entry) {
	var p *Entry
	n := len(e.Value)
	if n > InlineCap {
		p = new(Entry)
		*p = e
		n = 0
	}
	w := sl.w.Load()
	sl.w.Store(w | wordBusy)
	sl.meta.Store(packMeta(e.TS, e.RMW, n))
	for i := 0; i*8 < n; i++ {
		sl.val[i].Store(packWord(e.Value[i*8 : min(i*8+8, n)]))
	}
	var old *Entry
	if p != nil || sl.p.Load() != nil {
		old = sl.p.Swap(p)
	}
	sl.w.Store(nextWord(w, e.State))
	if old != nil && old.Owner != nil {
		// Each published entry holds its own reference, so this release is
		// unconditional even when old and new alias the same frame buffer.
		old.Owner.Release()
	}
	if p == nil && e.Owner != nil {
		e.Owner.Release() // the bytes were copied into the slot
	}
}

// packWord packs up to 8 bytes into a value word, little-endian.
func packWord(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var x uint64
	for i := len(b) - 1; i >= 0; i-- {
		x = x<<8 | uint64(b[i])
	}
	return x
}

// copyInline copies the inline value described by meta word m into buf and
// returns its length. The copy is consistent only if the state word is
// unchanged afterwards.
func (sl *Slot) copyInline(m uint64, buf *[InlineCap]byte) int {
	n := min(int(m&metaLen>>metaLenShift), InlineCap)
	for i := 0; i*8 < n; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], sl.val[i].Load())
	}
	return n
}

// SetState transitions only the replica state of k (e.g. Invalid -> Valid on
// a VAL message) leaving value and timestamp untouched. No-op if the key is
// absent. The caller must be the key's single writer. The record and its
// buffer reference stay as they are: only the state word changes.
func (s *Store) SetState(k proto.Key, st KeyState) { s.Lookup(k).SetState(st) }

// SetState is Store.SetState on a resolved slot: one atomic store.
func (sl *Slot) SetState(st KeyState) {
	if sl == nil {
		return
	}
	if w := sl.w.Load(); w >= wordVersion {
		sl.w.Store(nextWord(w, st))
	}
}

// GetRetained is Get for readers that will use the value outside the key's
// event-loop turn: when the entry's value aliases a pooled frame buffer,
// the buffer comes back pinned (one reference the caller must Release when
// done with the bytes). An owner-less entry needs no pin — its value is
// immutable heap memory — and returns Owner nil; an inline value comes back
// in a fresh copy, also with Owner nil.
//
// The pin protocol: load the word, TryRetain the loaded entry's buffer, then
// re-load the word and require it unchanged. Update releases a replaced
// entry's reference only after publishing the next word, so a successful
// retain on a stale entry is always caught by the word re-check (the
// transient extra reference is balance-neutral), and a failed TryRetain
// means a fresher entry is already on its way.
func (s *Store) GetRetained(k proto.Key) (Entry, bool) {
	sl := s.Lookup(k)
	if sl == nil {
		return Entry{}, false
	}
	for {
		w := sl.w.Load()
		if w&wordBusy != 0 {
			runtime.Gosched()
			continue
		}
		if e, ok, done := sl.read(w, true); done {
			return e, ok
		}
	}
}

// GetValidInto is the lock-free local-read fast path, which needs only Valid
// keys. A Valid inline value is copied into buf and its length returned as
// n, with v nil; a larger value comes back as v, owner pinned as GetRetained
// pins it. A missing key (the store's implicit initial state, Valid with a
// nil value) reads as n 0 and v nil. ok is false when the key is not Valid or
// an Update is publishing it; the caller then falls back to the protocol's
// path. A busy or non-Valid word is refused before the record is touched or
// its owner pinned, so GetValidInto never waits for the writer. The inline
// read writes no shared memory: word, meta and value words, word.
func (s *Store) GetValidInto(k proto.Key, buf *[InlineCap]byte) (n int, v proto.Value, owner *refbuf.Buf, ok bool) {
	sl := s.Lookup(k)
	if sl == nil {
		return 0, nil, nil, true
	}
	for {
		w := sl.w.Load()
		if w&wordLow != uint64(Valid) {
			return 0, nil, nil, false
		}
		p := sl.p.Load()
		if p == nil {
			n := sl.copyInline(sl.meta.Load(), buf)
			if sl.w.Load() == w {
				return n, nil, nil, true
			}
			continue
		}
		if sl.pin(p, w, true) {
			return 0, p.Value, p.Owner, true
		}
	}
}

// read is one snapshot attempt against the non-busy word w: the record as
// published at w, a large value's owner pinned when retain is set. done is
// false when the attempt must be retried (the word moved on).
func (sl *Slot) read(w uint64, retain bool) (e Entry, ok, done bool) {
	if w < wordVersion {
		// Nothing published when the word was loaded: the key was absent at
		// that instant.
		return Entry{}, false, true
	}
	p := sl.p.Load()
	if p == nil {
		var buf [InlineCap]byte
		m := sl.meta.Load()
		n := sl.copyInline(m, &buf)
		if sl.w.Load() != w {
			return Entry{}, false, false
		}
		h := headOf(m, w)
		e = Entry{TS: h.TS, State: h.State, RMW: h.RMW}
		if n > 0 {
			e.Value = bytes.Clone(buf[:n])
		}
		return e, true, true
	}
	if !sl.pin(p, w, retain) {
		return Entry{}, false, false
	}
	e = *p
	e.State = KeyState(w & wordState)
	return e, true, true
}

// pin is the second half of a read of entry p against word w: it pins p's
// owner when retain is set and re-checks the word, reporting whether p is
// still the published entry (if not, nothing stays pinned).
func (sl *Slot) pin(p *Entry, w uint64, retain bool) bool {
	retain = retain && p.Owner != nil
	if retain && !p.Owner.TryRetain() {
		return false
	}
	if sl.w.Load() != w {
		if retain {
			p.Owner.Release()
		}
		return false
	}
	return true
}

// Len returns the number of keys stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Range calls fn for every key holding a published record, with its slot;
// fn reads what it needs of the record (Head, Load), so a walk that wants
// only keys copies no value. Used by shadow-replica state transfer (paper
// §3.4 Recovery) to read chunks of the datastore. It walks each shard's
// published index without a lock, so inserts and doublings may run
// concurrently: every key present when Range starts is visited exactly once,
// a key inserted meanwhile at most once. Iteration order is unspecified.
// Returns early if fn returns false.
func (s *Store) Range(fn func(k proto.Key, sl *Slot) bool) {
	for i := range s.shards {
		t := s.shards[i].tab.Load()
		for j := range t.ents {
			ie := &t.ents[j]
			sl := ie.slot.Load()
			if sl == nil || sl.w.Load() < wordVersion {
				continue
			}
			if !fn(proto.Key(ie.key.Load()), sl) {
				return
			}
		}
	}
}
