package core

import (
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// Protocol messages (paper §3.2, Figure 3). Every message is tagged with the
// sender's membership epoch_id; receivers drop messages from a different
// epoch (paper §2.4), which is what makes membership reconfiguration safe:
// a node that has not yet received the latest m-update simply ignores new
// traffic until it catches up, manifesting as message loss that the sender's
// retransmission timer (mlt) recovers from.

// INV invalidates a key at the followers and carries the new value — the
// "early value propagation" (§3.1) that makes writes safely replayable: any
// invalidated node knows everything needed to finish the write itself.
// RMW distinguishes conflicting RMW updates (§3.6) from writes.
type INV struct {
	Epoch uint32
	Key   proto.Key
	TS    proto.TS
	Value proto.Value
	RMW   bool

	// Owner, when non-nil, is the pooled frame buffer that Value aliases:
	// the wire decoder retained it once on this INV's behalf, and exactly
	// one downstream party must consume that reference — the store adopts
	// it on apply (kvs.Entry.Owner), or the engine releases it on every
	// drop path (stale epoch, outranked duplicate, RMW conflict reply).
	// Owner is never encoded; an INV that crosses the wire again carries a
	// fresh frame's ownership on the far side. Nil means Value is a private
	// heap slice (in-process transports, locally minted writes) that is
	// immutable and safe to alias forever.
	Owner *refbuf.Buf
}

// ReleaseOwner drops the INV's frame-buffer reference on a path that will
// not adopt the value into the store. Safe on owner-less INVs.
func (m INV) ReleaseOwner() {
	if m.Owner != nil {
		m.Owner.Release()
	}
}

// ReleaseMsgOwners releases every pooled-buffer reference msg carries,
// looking through the shard envelopes. Transports call it on any decoded
// message they drop instead of delivering, and the wings link calls it when
// Send consumes a message (the frame encoder copies the bytes out
// synchronously, so the reference is spent whether or not the encode
// succeeded).
func ReleaseMsgOwners(msg any) {
	switch m := msg.(type) { //hermesvet:ignore exhaustive deliberately partial: every message type without an Owner field needs no release, and falling through is the correct no-op
	case INV:
		m.ReleaseOwner()
	case proto.ShardMsg:
		ReleaseMsgOwners(m.Msg)
	case proto.ShardBatch:
		for _, sm := range m.Msgs {
			ReleaseMsgOwners(sm.Msg)
		}
	}
}

// MsgKey names the key a message's turn resolves in the store: the key of an
// INV or a VAL, and false for every other message. An ACK is left out: its
// coordinator reaches the key's slot through the key's meta, which the update
// it acknowledges cached. The shard runner prefetches the named keys of a
// window before it runs the window's turns (Hermes.Prefetch).
func MsgKey(msg any) (proto.Key, bool) {
	switch m := msg.(type) {
	case INV:
		return m.Key, true
	case VAL:
		return m.Key, true
	}
	return 0, false
}

// ACK acknowledges an INV. The follower echoes the INV's timestamp so the
// coordinator can match it to the pending update.
//
// When the acker's local timestamp outranks the INV (an ACK-without-apply:
// the write still commits but is serialized before the acker's chain), the
// ACK teaches the sender the rival entry via the Higher* fields. Without the
// payload the losing coordinator validates its own copy in ignorance of the
// in-flight rival, and an RMW minted from that copy reads a chain the rival
// is about to splice into — the stale-read interleaving the gray-failure
// chaos sweep exposed (pinned by TestChaosTeachingACK). The recipient only
// installs the taught entry (see Hermes.learnHigher); it never re-issues its
// own write at a fresh timestamp, because the outranked INV may already have
// committed through a §3.4 replay elsewhere.
type ACK struct {
	Epoch uint32
	Key   proto.Key
	TS    proto.TS

	Higher bool        // local entry outranked the INV; payload follows
	HTS    proto.TS    // the outranking entry's timestamp
	HVal   proto.Value // its value (uncommitted here, so applied Invalid)
	HRMW   bool        // whether that entry was minted by an RMW
}

// VAL validates a key: the write with the carried timestamp committed, so a
// follower whose local timestamp equals TS transitions the key back to
// Valid. A VAL with a non-matching timestamp is ignored (§3.2 FVAL).
type VAL struct {
	Epoch uint32
	Key   proto.Key
	TS    proto.TS
}

// MCheck asks followers to confirm they share the sender's epoch. It
// implements the clock-free linearizable read validation of §8 ("Hermes
// without Loosely Synchronized Clocks"): a batch of speculatively executed
// reads is released once a majority confirms the reader's membership is
// current. Seq matches responses to the outstanding check.
type MCheck struct {
	Epoch uint32
	Seq   uint64
}

// MCheckAck confirms an MCheck. Sent only when the receiver's epoch equals
// the MCheck's epoch.
type MCheckAck struct {
	Epoch uint32
	Seq   uint64
}

// ChunkReq asks a member for a range of the datastore; used by shadow
// replicas (learners) to reconstruct state while they catch up
// (§3.4 Recovery). Cursor is an opaque continuation token (0 starts); a
// replica reads it as the lowest key still needed and replies with the
// MaxKeys smallest keys at or above it, in ascending order.
type ChunkReq struct {
	Epoch   uint32
	Cursor  uint64
	MaxKeys int
}

// ChunkResp returns a batch of key records. Cursor echoes the request's, so
// a learner drops answers to superseded requests. Done indicates the
// transfer is complete. Receivers apply each record only if its timestamp
// is newer than the local one, so chunk transfer never regresses
// concurrently replicated writes.
type ChunkResp struct {
	Epoch  uint32
	Cursor uint64
	Done   bool
	Keys   []proto.Key
	Recs   []ChunkRec
}

// ChunkRec is one key's record in a ChunkResp. Invalid marks records whose
// source copy was not in Valid state (an uncommitted in-flight write): the
// learner stores them Invalid so it can never serve an uncommitted value
// after promotion; the write's VAL or a replay validates them later.
type ChunkRec struct {
	TS      proto.TS
	Value   proto.Value
	RMW     bool
	Invalid bool
}
