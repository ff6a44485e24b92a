package core

import (
	"bytes"
	"sync/atomic"

	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// ReadGate is the single atomic word guarding the lock-free local-read fast
// path (paper §4.1). The live runtime serves a read on the caller's
// goroutine — one gate load, one store lookup, one gate re-load, zero locks —
// whenever the gate allows it; otherwise the read falls back to the event
// loop's Submit path. The replica republishes the gate on every transition
// that affects read safety: view installation, operational/lease flips, and
// learner catch-up.
//
// Encoding:
//
//	bits 0..31  membership epoch of the last publication
//	bit 32      serving: operational member of the view, not a learner
//	bit 33      noLSC: §8 mode — every read must be speculative and wait for
//	            a commit or membership proof, so the fast path never applies
//
// The epoch bits make any view installation change the word even when the
// flags end up identical, which is what lets ReadLocal detect a transition
// that raced its store lookup.
type ReadGate struct{ v atomic.Uint64 }

const (
	gateServing uint64 = 1 << 32
	gateNoLSC   uint64 = 1 << 33
)

func gateAllows(s uint64) bool { return s&gateServing != 0 && s&gateNoLSC == 0 }

// Allowed reports whether the fast path is currently open.
func (g *ReadGate) Allowed() bool { return gateAllows(g.v.Load()) }

// Epoch returns the membership epoch of the last publication.
func (g *ReadGate) Epoch() uint32 { return uint32(g.v.Load()) }

// Shut closes the gate without touching epoch or mode bits. The live
// runtime calls it before queueing an m-update for the engine so
// fast-path reads fall back for the whole transition window; OnViewChange
// republishes the gate under the new epoch when the installation completes.
func (g *ReadGate) Shut() {
	for {
		old := g.v.Load()
		if old&gateServing == 0 || g.v.CompareAndSwap(old, old&^gateServing) {
			return
		}
	}
}

func (g *ReadGate) publish(epoch uint32, serving, noLSC bool) {
	s := uint64(epoch)
	if serving {
		s |= gateServing
	}
	if noLSC {
		s |= gateNoLSC
	}
	g.v.Store(s)
}

// ReadGate exposes the replica's gate (the live runtime shuts it across
// view installations; tests inspect it).
func (h *Hermes) ReadGate() *ReadGate { return &h.gate }

// publishGate recomputes and publishes the gate from the replica's current
// state. Called from the event loop only.
func (h *Hermes) publishGate() {
	h.gate.publish(h.view.Epoch, h.oper && !h.learner, h.cfg.NoLSC)
}

// ReadLocal attempts the lock-free local-read fast path: it serves the read
// on the calling goroutine iff the gate is open and the key's record is
// Valid, without ever entering the event loop. Missing keys read as the
// store's implicit initial state (Valid, nil), exactly as Submit treats
// them. Safe to call from any goroutine, concurrently with the event loop.
//
// Linearizability argument: a Valid record's value is the latest committed
// value at the instant its slot's state word is loaded (in-flight higher-TS
// writes mark the key non-Valid before any replica acknowledges them), and
// kvs.Store.GetValidInto returns the value only if the word is unchanged
// after the value is copied (or its entry loaded and pinned), so the read
// linearizes at that load — provided this replica is still a serving member.
// The gate is loaded on both sides of the record load and the read falls
// back unless the two snapshots are identical and open, so a concurrent view
// installation (which shuts the gate first) can never have its transition
// window straddle the lookup unnoticed.
func (h *Hermes) ReadLocal(k proto.Key) (proto.Value, bool) {
	v, owner, ok := h.ReadLocalRetained(k)
	if !ok {
		return nil, false
	}
	if owner != nil {
		// The caller gets a private copy; the pin existed only for the
		// duration of the clone.
		v = v.Clone()
		owner.Release()
	}
	return v, true
}

// ReadLocalRetained is ReadLocal for callers that consume the value
// asynchronously (the serving layer encodes responses on a flusher
// goroutine): when the returned owner is non-nil, the value aliases a pooled
// wire-frame buffer pinned with one reference the caller must Release after
// its last use of the bytes — skipping the defensive copy ReadLocal would
// make. A nil owner means the value is immutable heap memory with no
// lifetime obligation (a value of at most kvs.InlineCap bytes comes back in
// a fresh copy). ok=false follows ReadLocal's fallback contract.
func (h *Hermes) ReadLocalRetained(k proto.Key) (proto.Value, *refbuf.Buf, bool) {
	var buf [kvs.InlineCap]byte
	n, v, owner, ok := h.ReadLocalInto(k, &buf)
	if ok && v == nil && n > 0 {
		v = bytes.Clone(buf[:n])
	}
	return v, owner, ok
}

// ReadLocalInto is the fast path's read-into door, for callers that bring
// their own buffer and copy the value out before reusing it: a value of at
// most kvs.InlineCap bytes is copied into buf and its length returned as n,
// with v and owner nil — the read pins nothing and writes no shared memory.
// A larger value comes back as ReadLocalRetained returns it, owner pinned. A
// missing key reads as n 0 and v nil. ok=false follows ReadLocal's fallback
// contract.
func (h *Hermes) ReadLocalInto(k proto.Key, buf *[kvs.InlineCap]byte) (n int, v proto.Value, owner *refbuf.Buf, ok bool) {
	g := h.gate.v.Load()
	if !gateAllows(g) {
		h.fastMisses.Inc()
		return 0, nil, nil, false
	}
	n, v, owner, ok = h.store.GetValidInto(k, buf)
	if !ok {
		h.fastMisses.Inc()
		return 0, nil, nil, false
	}
	if h.gate.v.Load() != g {
		if owner != nil {
			owner.Release()
		}
		h.fastMisses.Inc()
		return 0, nil, nil, false
	}
	// One counter bump, not two: the read total is derived as
	// submitted + fastReads when reported, keeping the hit hot path at a
	// single striped increment (see readCounter).
	h.fastReads.Inc()
	return n, v, owner, true
}

// ReadStats returns the read-side counters: total reads served (fast path +
// event loop), fast-path hits, and fast-path misses (reads that fell back
// to Submit). Unlike Metrics, it is safe to call concurrently with traffic.
func (h *Hermes) ReadStats() (reads, fastHits, fastMisses uint64) {
	fastHits = h.fastReads.Load()
	return h.reads.Load() + fastHits, fastHits, h.fastMisses.Load()
}
