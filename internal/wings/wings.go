// Package wings is the RPC layer of HermesKV (paper §4.2), re-targeted from
// RDMA UD sends to any byte stream (net.Conn, net.Pipe): it provides
//
//   - compact hand-rolled binary codecs for every Hermes message,
//   - opportunistic batching: messages accumulate while a send is in flight
//     and ship as one framed batch — never stalling to fill a batch,
//   - an optional credit window with implicit repayment (each response
//     repays its request), which the client session uses as its pipelining
//     window.
//
// Wings' explicit credit updates are left out: over a byte stream the
// transport's own window, Post's byte bound and the receiver's bounded inbox
// already bound both ends, so the replica mesh runs its links with no window
// at all. PCIe-level RDMA tricks (doorbell batching, inlining) have no
// software-visible protocol effect and are represented by their closest
// stream analogue: one syscall per batch.
//
// One syscall per batch holds on the read side too. Every serve loop — the
// mesh link's Serve and the client session's two typed loops — runs on one
// frame reader (serveFrames) with a fixed 64 KiB buffer. On a Linux TCP
// socket it receives inside a single RawConn.Read, which arms the poller
// once, and parks on readiness as soon as TCP_INQ says the socket is
// drained: a net.Conn.Read re-arms the poller on every call, so a caught-up
// loop pays a second, probing read per frame only to be told EAGAIN.
package wings

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// Frame layout:
//
//	[4B total length][2B message count] then per message:
//	[1B type][4B length][payload]

const (
	tINV uint8 = iota + 1
	tACK
	tVAL
	tMCheck
	tMCheckAck
	tChunkReq
	tChunkResp
	// tCredit was Wings' explicit credit update. Nothing sends it and every
	// decoder refuses it; the tag stays reserved so that the tags after it
	// keep their wire values.
	tCredit
	// tShard wraps any other message with a 2-byte shard tag — the
	// proto.ShardMsg envelope of the multi-worker engine. Payload:
	// [2B shard][1B inner type][4B inner length][inner payload].
	tShard
	// tShardBatch coalesces shard-tagged small messages from many shard
	// engines into one frame — the proto.ShardBatch envelope. Payload:
	// [2B count] then per entry [2B shard][1B inner type][4B len][payload].
	tShardBatch
	// tMUpdate is a shard-routable membership update (proto.MUpdate):
	// [4B epoch][2B target shard][2B member count][members, 1B each]
	// [2B learner count][learners, 1B each]. Node-level routing — it never
	// nests inside a shard envelope (the shard field IS the routing tag).
	tMUpdate
	// tViewLogReq asks a peer for its retained membership updates — the
	// fast-forward fetch of a rejoining or lagging shard (proto.ViewLogReq):
	// [2B shard][4B since]. Node-level routing like tMUpdate.
	tViewLogReq
	// tViewLogResp carries the retained updates (proto.ViewLogResp):
	// [2B count] then per entry the tMUpdate body
	// ([4B epoch][2B shard][2B n][members][2B n][learners]). The count is
	// validated against the bytes present before any allocation, the
	// tShardBatch discipline. Never nests inside a shard envelope.
	tViewLogResp
	// tClientReq is one pipelined client request (proto.ClientReq):
	// [8B seq][1B op][8B key][4B len][value][4B len][expected]. Client↔server
	// traffic only: it never rides the replica mesh, so a shard envelope
	// around it is always hostile. Out-of-range op codes are rejected at
	// decode — the server must never see an op kind it cannot dispatch.
	tClientReq
	// tClientResp answers a tClientReq (proto.ClientResp):
	// [8B seq][1B status][4B len][value]. Same nesting and range discipline
	// as tClientReq (a status outside the protocol's enum is a corrupt or
	// hostile stream, not a value to hand to retry logic).
	tClientResp
	// tEpochGossip announces the sender's per-shard membership epoch vector
	// (proto.EpochGossip): [2B count][4B epoch each]. The count is validated
	// against the bytes present before any allocation, the tShardBatch
	// discipline. Node-level routing like tMUpdate — never nests inside a
	// shard envelope. Strictly advisory on receipt: a hostile vector can at
	// worst provoke a view-log fetch whose answer the normal install path
	// verifies.
	tEpochGossip
)

// maxFrame bounds a frame's size (defense against corrupt streams).
const maxFrame = 16 << 20

// ClientMagic opens a client session: the connecting client writes these 4
// bytes, and the server answers with the same 4 bytes followed by a 4-byte
// little-endian pipelining window — the number of requests the client may
// keep in flight on the connection (its send-credit budget). Both the wire
// server (internal/server) and the session client (internal/client) speak
// this handshake; a connection that opens with anything else is not a client
// session and is closed before any frame is parsed.
var ClientMagic = [4]byte{'h', 'C', 'L', '1'}

// MaxFrameMsgs is the most messages one frame can carry (AppendFrame rejects
// larger batches); exported so batching callers can split at the same bound
// the codec enforces.
const MaxFrameMsgs = maxFrameMsgs

// ErrUnknownType reports an unregistered message type on the wire.
var ErrUnknownType = errors.New("wings: unknown message type")

// ErrBadEnum reports a client-protocol op or status code outside the
// protocol's enum — a corrupt or hostile stream, never produced by a
// conforming encoder.
var ErrBadEnum = errors.New("wings: enum value out of range")

// appendMsg encodes one protocol message: [1B type][4B length][body]. The
// replication traffic — the shard envelopes and INV/ACK/VAL inside them — is
// encoded here; everything else in appendColdBody. The split is about this
// function's stack frame, not its speed: a batch is encoded two levels deep,
// on a flusher goroutine born with a 2 KiB stack, and with all fourteen
// message types' temporaries in one frame (696 bytes) that descent outgrew
// the stack, so every flush began with a runtime.newstack copy.
func appendMsg(buf []byte, msg any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0) // type + length placeholder
	var t uint8
	var err error
	switch m := msg.(type) {
	case core.INV:
		t = tINV
		buf = appendEpochKeyTS(buf, m.Epoch, m.Key, m.TS)
		buf = appendBool(buf, m.RMW)
		buf = appendBytes(buf, m.Value)
	case core.ACK:
		t = tACK
		buf = appendEpochKeyTS(buf, m.Epoch, m.Key, m.TS)
		buf = appendBool(buf, m.Higher)
		if m.Higher {
			buf = binary.LittleEndian.AppendUint32(buf, m.HTS.Version)
			buf = binary.LittleEndian.AppendUint16(buf, m.HTS.CID)
			buf = appendBool(buf, m.HRMW)
			buf = appendBytes(buf, m.HVal)
		}
	case core.VAL:
		t = tVAL
		buf = appendEpochKeyTS(buf, m.Epoch, m.Key, m.TS)
	case proto.ShardMsg:
		t = tShard
		if nestedEnvelope(m.Msg) {
			return nil, errNestedShardMsg
		}
		buf = binary.LittleEndian.AppendUint16(buf, m.Shard)
		buf, err = appendMsg(buf, m.Msg)
	case proto.ShardBatch:
		t = tShardBatch
		if len(m.Msgs) == 0 || len(m.Msgs) > 0xFFFF {
			return nil, errBatchCount(len(m.Msgs))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Msgs)))
		for _, sm := range m.Msgs {
			if nestedEnvelope(sm.Msg) {
				return nil, errNestedInBatch
			}
			buf = binary.LittleEndian.AppendUint16(buf, sm.Shard)
			if buf, err = appendMsg(buf, sm.Msg); err != nil {
				return nil, err
			}
		}
	default:
		t, buf, err = appendColdBody(buf, msg)
	}
	if err != nil {
		return nil, err
	}
	buf[start] = t
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-5))
	return buf, nil
}

// appendColdBody appends the body of every message type appendMsg does not
// encode itself — membership, recovery and client-session traffic — and
// returns its wire tag. Never inlined: its temporaries must stay out of
// appendMsg's frame.
//
//go:noinline
func appendColdBody(buf []byte, msg any) (t uint8, _ []byte, err error) {
	switch m := msg.(type) {
	case core.MCheck:
		t = tMCheck
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	case core.MCheckAck:
		t = tMCheckAck
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	case core.ChunkReq:
		t = tChunkReq
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Cursor)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.MaxKeys))
	case core.ChunkResp:
		t = tChunkResp
		buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Cursor)
		buf = appendBool(buf, m.Done)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Keys)))
		for i, k := range m.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
			r := m.Recs[i]
			buf = binary.LittleEndian.AppendUint32(buf, r.TS.Version)
			buf = binary.LittleEndian.AppendUint16(buf, r.TS.CID)
			buf = appendBool(buf, r.RMW)
			buf = appendBool(buf, r.Invalid)
			buf = appendBytes(buf, r.Value)
		}
	case proto.MUpdate:
		t = tMUpdate
		buf, err = appendMUpdateBody(buf, m)
	case proto.ViewLogReq:
		t = tViewLogReq
		buf = binary.LittleEndian.AppendUint16(buf, m.Shard)
		buf = binary.LittleEndian.AppendUint32(buf, m.Since)
	case proto.ClientReq:
		t = tClientReq
		if m.Op > proto.OpFAA {
			return 0, nil, ErrBadEnum
		}
		buf = appendClientReqBody(buf, &m)
	case proto.ClientResp:
		t = tClientResp
		if m.Status > proto.NotOperational {
			return 0, nil, ErrBadEnum
		}
		buf = appendClientRespBody(buf, &m)
	case proto.EpochGossip:
		t = tEpochGossip
		if len(m.Epochs) > 0xFFFF {
			return 0, nil, fmt.Errorf("wings: EpochGossip of %d shards", len(m.Epochs))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Epochs)))
		for _, e := range m.Epochs {
			buf = binary.LittleEndian.AppendUint32(buf, e)
		}
	case proto.ViewLogResp:
		t = tViewLogResp
		if len(m.Updates) > 0xFFFF {
			return 0, nil, fmt.Errorf("wings: ViewLogResp of %d updates", len(m.Updates))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Updates)))
		for _, up := range m.Updates {
			if buf, err = appendMUpdateBody(buf, up); err != nil {
				return 0, nil, err
			}
		}
	default:
		return 0, nil, fmt.Errorf("wings: cannot encode %T", msg)
	}
	return t, buf, err
}

var (
	errNestedShardMsg = errors.New("wings: nested ShardMsg")
	errNestedInBatch  = errors.New("wings: nested envelope in ShardBatch")
)

// errBatchCount is out of line for the reason appendColdBody is: fmt's boxed
// argument would otherwise sit in appendMsg's frame.
//
//go:noinline
func errBatchCount(n int) error {
	return fmt.Errorf("wings: ShardBatch of %d messages", n)
}

// nestedEnvelope reports whether msg must not nest inside a shard envelope:
// the envelopes themselves (the encoders wrap exactly one level), the
// node-level membership traffic — MUpdate (its shard field IS the routing
// tag) and the view-log pair (host-level fast-forward, never shard-engine
// traffic) — and the client session pair, which never touches the replica
// mesh at all.
func nestedEnvelope(msg any) bool {
	switch msg.(type) {
	case proto.ShardMsg, proto.ShardBatch, proto.MUpdate, proto.ViewLogReq, proto.ViewLogResp,
		proto.EpochGossip, proto.ClientReq, proto.ClientResp:
		return true
	}
	return false
}

// appendMUpdateBody encodes an MUpdate's payload: [4B epoch][2B shard]
// [2B n][members][2B n][learners]. Shared by tMUpdate and the entries of a
// tViewLogResp so the two framings cannot drift.
func appendMUpdateBody(buf []byte, m proto.MUpdate) ([]byte, error) {
	if len(m.View.Members) > 0xFFFF || len(m.View.Learners) > 0xFFFF {
		return nil, fmt.Errorf("wings: oversized view in MUpdate")
	}
	buf = binary.LittleEndian.AppendUint32(buf, m.View.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, m.Shard)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.View.Members)))
	for _, n := range m.View.Members {
		buf = append(buf, byte(n))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.View.Learners)))
	for _, n := range m.View.Learners {
		buf = append(buf, byte(n))
	}
	return buf, nil
}

// readMUpdateBody decodes one MUpdate payload; errors surface via r.err.
func readMUpdateBody(r *reader) proto.MUpdate {
	m := proto.MUpdate{}
	m.View.Epoch = r.u32()
	m.Shard = r.u16()
	m.View.Members = r.nodeIDs()
	m.View.Learners = r.nodeIDs()
	return m
}

// The client session pair has one body encoder and one body decoder each,
// shared by the generic entry points (appendColdBody, decodeMsg) and the typed
// doors (Link.SendClientReq, ServeClientReqs, Link.ServeClientResps,
// AppendClientResps), so the two cannot drift. The encoders cannot fail: their
// callers range-check the enum first — the typed request door before it debits
// a credit, so it has no encode error to refund.

// appendClientReqBody appends a tClientReq payload:
// [8B seq][1B op][8B key][4B len][value][4B len][expected].
func appendClientReqBody(buf []byte, m *proto.ClientReq) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, byte(m.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Key))
	buf = appendBytes(buf, m.Value)
	return appendBytes(buf, m.Expected)
}

// readClientReq decodes a tClientReq payload into *m, overwriting every
// field; Value and Expected are private copies, bounded by the bytes present
// before they are allocated (reader.bytes). An op outside the enum is refused:
// the server must never see an op kind it cannot dispatch.
// clientReqKey is readClientReq's verdict on body without its copies: the
// request's key, and whether readClientReq accepts the body.
func clientReqKey(body []byte) (proto.Key, bool) {
	r := reader{b: body}
	r.u64()
	op := proto.OpKind(r.u8())
	k := proto.Key(r.u64())
	r.bytesRef()
	r.bytesRef()
	return k, r.err == nil && op <= proto.OpFAA
}

func readClientReq(r *reader, m *proto.ClientReq) error {
	m.Seq = r.u64()
	m.Op = proto.OpKind(r.u8())
	m.Key = proto.Key(r.u64())
	m.Value = r.bytes()
	m.Expected = r.bytes()
	if r.err != nil {
		return r.err
	}
	if m.Op > proto.OpFAA {
		return ErrBadEnum
	}
	return nil
}

// appendClientRespBody appends a tClientResp payload:
// [8B seq][1B status][4B len][value].
func appendClientRespBody(buf []byte, m *proto.ClientResp) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, byte(m.Status))
	return appendBytes(buf, m.Value)
}

// readClientResp decodes a tClientResp payload into *m, overwriting every
// field; Value is a private copy. A status outside the enum is refused.
func readClientResp(r *reader, m *proto.ClientResp) error {
	m.Seq = r.u64()
	m.Status = proto.Status(r.u8())
	m.Value = r.bytes()
	if r.err != nil {
		return r.err
	}
	if m.Status > proto.NotOperational {
		return ErrBadEnum
	}
	return nil
}

func appendEpochKeyTS(buf []byte, epoch uint32, key proto.Key, ts proto.TS) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key))
	buf = binary.LittleEndian.AppendUint32(buf, ts.Version)
	buf = binary.LittleEndian.AppendUint16(buf, ts.CID)
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) boolv() bool {
	if r.err != nil || r.off+1 > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return false
	}
	v := r.b[r.off] != 0
	r.off++
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += n
	if n == 0 {
		return nil
	}
	return out
}

// bytesRef reads a length-prefixed byte field without copying: the result
// aliases the frame buffer (three-index sliced so an append can never grow
// into neighboring frame bytes). Callers must pair it with a reference on
// the frame's refbuf.Buf — this is the zero-copy INV value path.
func (r *reader) bytesRef() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *reader) ts() proto.TS { return proto.TS{Version: r.u32(), CID: r.u16()} }

// nodeIDs reads a [2B count][1B id]... node list. The count is validated
// against the bytes actually present before any allocation, so a hostile
// count cannot drive the preallocation (the same discipline as tShardBatch);
// a truncated list surfaces as ErrUnexpectedEOF via r.err.
func (r *reader) nodeIDs() []proto.NodeID {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]proto.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = proto.NodeID(r.b[r.off+i])
	}
	r.off += n
	return out
}

// decodeMsg decodes one message body of the given type. When owner is
// non-nil it is the pooled frame buffer body aliases, and value-bearing hot
// path messages (INV) decode zero-copy: the value sub-slices the frame and
// the message carries a retained reference the receiver must consume (adopt
// into the store or release on a drop path). A nil owner forces the copying
// decode — correct for standalone frames and codec paths with no refcount
// discipline downstream.
func decodeMsg(t uint8, body []byte, owner *refbuf.Buf) (any, error) {
	r := &reader{b: body}
	var msg any
	switch t {
	case tINV:
		m := core.INV{Epoch: r.u32(), Key: proto.Key(r.u64()), TS: r.ts()}
		m.RMW = r.boolv()
		if owner != nil {
			if m.Value = r.bytesRef(); m.Value != nil {
				owner.Retain()
				m.Owner = owner
			}
		} else {
			m.Value = r.bytes()
		}
		msg = m
	case tACK:
		m := core.ACK{Epoch: r.u32(), Key: proto.Key(r.u64()), TS: r.ts()}
		if m.Higher = r.boolv(); m.Higher {
			m.HTS = r.ts()
			m.HRMW = r.boolv()
			m.HVal = r.bytes()
		}
		msg = m
	case tVAL:
		msg = core.VAL{Epoch: r.u32(), Key: proto.Key(r.u64()), TS: r.ts()}
	case tMCheck:
		msg = core.MCheck{Epoch: r.u32(), Seq: r.u64()}
	case tMCheckAck:
		msg = core.MCheckAck{Epoch: r.u32(), Seq: r.u64()}
	case tChunkReq:
		msg = core.ChunkReq{Epoch: r.u32(), Cursor: r.u64(), MaxKeys: int(r.u32())}
	case tChunkResp:
		m := core.ChunkResp{Epoch: r.u32(), Cursor: r.u64(), Done: r.boolv()}
		n := int(r.u32())
		// Each record occupies at least 20 wire bytes (key 8, TS 6, two
		// flags, empty-value length 4); a count claiming more records than
		// the remaining bytes could hold is hostile.
		if n < 0 || n > (len(r.b)-r.off)/20 {
			return nil, io.ErrUnexpectedEOF
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Keys = append(m.Keys, proto.Key(r.u64()))
			rec := core.ChunkRec{TS: r.ts()}
			rec.RMW = r.boolv()
			rec.Invalid = r.boolv()
			rec.Value = r.bytes()
			m.Recs = append(m.Recs, rec)
		}
		msg = m
	case tMUpdate:
		msg = readMUpdateBody(r)
	case tViewLogReq:
		msg = proto.ViewLogReq{Shard: r.u16(), Since: r.u32()}
	case tClientReq:
		var m proto.ClientReq
		if err := readClientReq(r, &m); err != nil {
			return nil, err
		}
		msg = m
	case tClientResp:
		var m proto.ClientResp
		if err := readClientResp(r, &m); err != nil {
			return nil, err
		}
		msg = m
	case tEpochGossip:
		count := int(r.u16())
		if r.err != nil {
			return nil, r.err
		}
		// Each epoch is 4 wire bytes; a count claiming more than the body
		// holds is hostile and must not drive the preallocation. An empty
		// vector is legal (a node with no shards up yet).
		if count > (len(r.b)-r.off)/4 {
			return nil, io.ErrUnexpectedEOF
		}
		m := proto.EpochGossip{}
		if count > 0 {
			m.Epochs = make([]uint32, 0, count)
		}
		for i := 0; i < count && r.err == nil; i++ {
			m.Epochs = append(m.Epochs, r.u32())
		}
		msg = m
	case tViewLogResp:
		count := int(r.u16())
		if r.err != nil {
			return nil, r.err
		}
		// Every entry takes at least 10 bytes (epoch + shard + two counts); a
		// hostile count larger than the body can hold must not drive the
		// preallocation. An empty log is a legal answer ("nothing newer").
		if count > (len(r.b)-r.off)/10 {
			return nil, io.ErrUnexpectedEOF
		}
		m := proto.ViewLogResp{}
		if count > 0 {
			m.Updates = make([]proto.MUpdate, 0, count)
		}
		for i := 0; i < count && r.err == nil; i++ {
			m.Updates = append(m.Updates, readMUpdateBody(r))
		}
		msg = m
	case tShard:
		sm, err := decodeTagged(r, owner)
		if err != nil {
			return nil, err
		}
		msg = sm
	case tShardBatch:
		b, err := decodeShardBatch(r, owner, nil)
		if err != nil {
			return nil, err
		}
		msg = b
	default:
		return nil, ErrUnknownType
	}
	if r.err != nil {
		core.ReleaseMsgOwners(msg)
		return nil, r.err
	}
	return msg, nil
}

// decodeShardBatch parses a tShardBatch body into scratch[:0], or into a
// fresh slice when scratch is too small for the batch (nil: always fresh).
// The returned batch aliases scratch in the first case, so a caller passing
// one owns the batch's lifetime (Link.Serve: until fn returns).
func decodeShardBatch(r *reader, owner *refbuf.Buf, scratch []proto.ShardMsg) (proto.ShardBatch, error) {
	count := int(r.u16())
	if r.err != nil {
		return proto.ShardBatch{}, r.err
	}
	if count == 0 {
		return proto.ShardBatch{}, fmt.Errorf("wings: empty ShardBatch")
	}
	// Every entry takes at least 7 bytes (shard + type + length); a
	// hostile count larger than the body can hold must not drive the
	// preallocation.
	if count > (len(r.b)-r.off)/7 {
		return proto.ShardBatch{}, io.ErrUnexpectedEOF
	}
	msgs := scratch[:0]
	if cap(msgs) < count {
		msgs = make([]proto.ShardMsg, 0, count)
	}
	for i := 0; i < count; i++ {
		sm, err := decodeTagged(r, owner)
		if err != nil {
			// References already retained for earlier entries die with
			// the batch: the stream is aborted on a decode error, so the
			// frame buffer is simply never pooled again (GC reclaims it).
			releaseShardMsgOwners(msgs)
			return proto.ShardBatch{}, err
		}
		msgs = append(msgs, sm)
	}
	return proto.ShardBatch{Msgs: msgs}, nil
}

// releaseShardMsgOwners drops the frame references of partially decoded
// batch entries when a later entry fails to decode.
func releaseShardMsgOwners(msgs []proto.ShardMsg) {
	for _, sm := range msgs {
		core.ReleaseMsgOwners(sm.Msg)
	}
}

// decodeTagged parses one [2B shard][1B type][4B len][payload] entry — the
// body of a tShard message and the element of a tShardBatch.
func decodeTagged(r *reader, owner *refbuf.Buf) (proto.ShardMsg, error) {
	shard := r.u16()
	if r.err != nil {
		return proto.ShardMsg{}, r.err
	}
	if r.off+5 > len(r.b) {
		return proto.ShardMsg{}, io.ErrUnexpectedEOF
	}
	it := r.b[r.off]
	// The encoders wrap exactly one level; a nested envelope only occurs in
	// a corrupt or hostile stream, and recursing on it unboundedly would let
	// a 16 MB frame blow the stack. MUpdate and the view-log pair are
	// node-level routing, and the client session pair never rides the mesh:
	// shard-tagged ones are equally hostile.
	if it == tShard || it == tShardBatch || it == tCredit || it == tMUpdate ||
		it == tViewLogReq || it == tViewLogResp || it == tClientReq || it == tClientResp ||
		it == tEpochGossip {
		return proto.ShardMsg{}, ErrUnknownType
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off+1:]))
	r.off += 5
	if n < 0 || r.off+n > len(r.b) {
		return proto.ShardMsg{}, io.ErrUnexpectedEOF
	}
	inner, err := decodeMsg(it, r.b[r.off:r.off+n], owner)
	if err != nil {
		return proto.ShardMsg{}, err
	}
	r.off += n
	return proto.ShardMsg{Shard: shard, Msg: inner}, nil
}

// Stats counts link-level events.
type Stats struct {
	FramesSent, MsgsSent     uint64
	FramesRecv, MsgsRecv     uint64
	BatchedMsgs              uint64 // messages that shipped with company
	CreditStalls             uint64 // Sends that slept for credits
	ImplicitCreditsRecovered uint64
	// CoalescedSent/CoalescedRecv count the inner messages carried inside
	// ShardBatch envelopes; the envelope itself counts once in MsgsSent or
	// MsgsRecv.
	CoalescedSent, CoalescedRecv uint64
	// CreditsRefunded counts credits returned on Send error paths (link
	// closed while waiting, or encode failure after the debit).
	CreditsRefunded uint64
	// Shed counts messages Post refused because the link's queues were at
	// their byte bound (a stalled or unreachable peer); the protocols'
	// retransmission recovers them.
	Shed uint64
}

// linkCounters are the live counters behind Stats, field for field: one
// atomic each, so the per-message paths bump them without a lock.
type linkCounters struct {
	framesSent, msgsSent         atomic.Uint64
	framesRecv, msgsRecv         atomic.Uint64
	batchedMsgs                  atomic.Uint64
	creditStalls                 atomic.Uint64
	implicitCreditsRecovered     atomic.Uint64
	coalescedSent, coalescedRecv atomic.Uint64
	creditsRefunded              atomic.Uint64
	shed                         atomic.Uint64
}

// LinkConfig tunes one link. The zero value — no window — is the replica
// mesh's: TCP's window, Post's byte bound and the receiver's bounded inbox
// are its flow control.
type LinkConfig struct {
	// Credits is the send window: Send and SendClientReq sleep while it is
	// spent. 0 disables it. Post never consults it.
	Credits int
	// IsResponse marks message types that implicitly repay one credit to the
	// link they arrive on (a ClientResp repays its ClientReq). Responses do
	// not consume send credits themselves: the requester reserved their
	// buffer space when it spent a credit on the request. A ShardBatch is a
	// response (consumes no credit) only when every inner message is one;
	// on receive each inner response repays one credit individually (the
	// hook is asked about each inner message bare, outside its ShardMsg).
	IsResponse func(msg any) bool
}

// Link is one batching connection to a peer, optionally under a send window.
// It is the only egress queue between a sender and the stream, and its
// flusher the only goroutine that ever waits on the peer: Send sleeps for
// credits (a session's backpressure), Post never does (see Post).
type Link struct {
	cfg LinkConfig

	mu       sync.Mutex
	sendCond *sync.Cond
	// pending is the frame under construction: frameHdrLen reserved bytes,
	// patched at flush, then the encoded, unsent messages — so a flush is one
	// contiguous Write. Empty (no header either) while nothing is queued.
	pending  []byte
	nPending int
	// spare is the other half of the send double buffer: the flusher swaps
	// it in for pending when it takes a batch, and hands the flushed buffer
	// back here once the write has returned, so steady-state encoding never
	// grows a buffer from zero. Nil while that buffer is out with the flusher.
	spare    []byte
	credits  int
	closed   bool
	flushing bool
	// flush is flushLoop bound once: `go l.flush()` starts the flusher
	// without the closure a `go l.flushLoop()` statement allocates per start.
	flush func()

	// w is written by the flusher alone, and flushing admits one flusher at a
	// time. Never under mu, so a slow peer stalls only the flusher — senders
	// keep queueing.
	w io.Writer

	stats linkCounters
}

// frameHdrLen is the [4B length][2B count] prefix of a frame.
const frameHdrLen = 6

// maxSpareBuf caps the capacity of a send buffer the link keeps for reuse
// (pending, spare): one grown past it by a one-off burst goes back to the
// collector instead of staying resident.
const maxSpareBuf = 256 << 10

// maxQueuedBytes bounds what Post lets wait in a link. Post never blocks its
// caller, so behind a stalled peer — socket full, dial hanging — the queue
// must not grow without bound; past the cap messages are shed, the
// bounded-queue discipline of cluster.ChanTransport's full inbox, and the
// protocols' retransmission recovers. The message that crosses the bound is still admitted, so one
// larger than the cap ships alone.
const maxQueuedBytes = 4 << 20

var (
	errLinkClosed = errors.New("wings: link closed")
	errQueueFull  = errors.New("wings: send queue full, message shed")
)

// NewLink wraps one side of a stream. Call Serve with the read side to pump
// incoming messages. Every frame reaches w as one Write, from one goroutine
// at a time.
func NewLink(w io.Writer, cfg LinkConfig) *Link {
	l := &Link{cfg: cfg, w: w, credits: cfg.Credits}
	l.sendCond = sync.NewCond(&l.mu)
	l.flush = l.flushLoop
	return l
}

// Send encodes msg and queues it; it ships in the next batch. Blocks only
// while the credit window is spent — the backpressure a client session wants.
// A message cfg.IsResponse marks costs nothing; any other costs one credit.
//
// Send consumes msg's pooled-buffer value references (core.INV.Owner and
// friends) on every path, success or failure: the encoder copies value
// bytes into the send buffer synchronously, so the references are spent the
// moment Send returns and callers must never release them afterward. For
// the same reason a message holding frame references must be Sent at most
// once.
func (l *Link) Send(msg any) error { return l.enqueue(msg, true) }

// Post is Send for callers that must never wait on a peer — event loops. It
// never debits the window and never waits: with maxQueuedBytes already
// queued it sheds msg and says so. Ownership is Send's: msg's buffer
// references are spent on every path.
func (l *Link) Post(msg any) error { return l.enqueue(msg, false) }

func (l *Link) enqueue(msg any, wait bool) error {
	cost := 0
	if wait && l.cfg.Credits > 0 && !(l.cfg.IsResponse != nil && l.cfg.IsResponse(msg)) {
		cost = 1
	}
	l.mu.Lock()
	l.awaitCredits(cost)
	err := error(nil)
	switch {
	case l.closed:
		// No debit happened (or the closed-wakeup interrupted the wait
		// before one): nothing to refund.
		err = errLinkClosed
	case !wait && len(l.pending) >= maxQueuedBytes:
		l.stats.shed.Add(1)
		err = errQueueFull
	default:
		l.credits -= cost
		// appendMsg returns nil on error, so pending is stored only on
		// success: an encode failure cannot wipe messages other senders
		// queued.
		var buf []byte
		if buf, err = appendMsg(l.frameStart(), msg); err == nil {
			l.pending = buf
			l.nPending++
			l.kickLocked()
		} else if cost > 0 {
			// The message never shipped; give the credit back so the window
			// does not shrink permanently on encode errors.
			l.credits += cost
			l.stats.creditsRefunded.Add(uint64(cost))
			l.sendCond.Signal()
		}
	}
	l.mu.Unlock()
	if sb, ok := msg.(proto.ShardBatch); ok && err == nil {
		l.stats.coalescedSent.Add(uint64(len(sb.Msgs)))
	}
	// Exactly-once consumption on every path: queued, the bytes are in a send
	// buffer; refused, this is the last party holding the references.
	core.ReleaseMsgOwners(msg)
	return err
}

// awaitCredits sleeps, l.mu held, until the window covers cost or the link is
// closed — Send's wait, and SendClientReq's. The caller checks l.closed and
// debits.
func (l *Link) awaitCredits(cost int) {
	if l.credits < cost && !l.closed {
		l.stats.creditStalls.Add(1)
	}
	for l.credits < cost && !l.closed {
		l.sendCond.Wait()
	}
}

// SendClientReq is Send for a session's requests, minus the interface box:
// the client's typed door. A request costs one credit — its response repays
// it (ServeClientResps) — so the caller sleeps while the window is spent, and
// req is encoded into the outgoing frame before SendClientReq returns: the
// link keeps no reference to it or to its value bytes.
func (l *Link) SendClientReq(req *proto.ClientReq) error {
	if req.Op > proto.OpFAA {
		return ErrBadEnum
	}
	cost := min(1, l.cfg.Credits)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitCredits(cost)
	if l.closed {
		return errLinkClosed
	}
	l.credits -= cost
	buf := l.frameStart()
	s := len(buf)
	buf = append(buf, tClientReq, 0, 0, 0, 0)
	buf = appendClientReqBody(buf, req)
	binary.LittleEndian.PutUint32(buf[s+1:], uint32(len(buf)-s-5))
	l.pending = buf
	l.nPending++
	l.kickLocked()
	return nil
}

// frameStart returns pending ready for a message: an empty buffer first gets
// the frame header's placeholder.
func (l *Link) frameStart() []byte {
	if len(l.pending) == 0 {
		return append(l.pending, make([]byte, frameHdrLen)...)
	}
	return l.pending
}

// kickLocked starts the flusher if idle. Batching is opportunistic: while a
// flush is in flight — or has been started and not yet run — further messages
// pile into pending and ship together.
func (l *Link) kickLocked() {
	if l.flushing || l.nPending == 0 {
		return
	}
	l.flushing = true
	go l.flush()
}

// maxFrameMsgs caps one frame at the header's 2-byte message count. Messages
// can pile into pending while a flush is wedged on a slow peer, so an
// over-full buffer must ship as several frames — truncating the count to
// uint16 would make the receiver skip the overflowed messages silently.
const maxFrameMsgs = 0xFFFF

func (l *Link) flushLoop() {
	// flushed is the buffer the previous iteration wrote out, handed back as
	// the spare under the lock this iteration takes anyway.
	var flushed []byte
	for {
		l.mu.Lock()
		if flushed != nil && cap(flushed) <= maxSpareBuf {
			l.spare = flushed[:0]
		}
		flushed = nil
		if l.nPending == 0 || l.closed {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		frame, count := l.pending, l.nPending
		l.pending, l.nPending = l.spare[:0], 0
		l.spare = nil
		if count > maxFrameMsgs {
			// Walk the [1B type][4B len][payload] encoding to the split point;
			// what is past it goes back to pending behind a header of its own.
			off := frameHdrLen
			for i := 0; i < maxFrameMsgs; i++ {
				off += 5 + int(binary.LittleEndian.Uint32(frame[off+1:]))
			}
			l.pending = append(l.frameStart(), frame[off:]...)
			l.nPending = count - maxFrameMsgs
			frame, count = frame[:off], maxFrameMsgs
		}
		l.mu.Unlock()

		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
		binary.LittleEndian.PutUint16(frame[4:], uint16(count))

		// Count the frame before shipping it so a peer that has received the
		// messages can never observe sender stats that miss them.
		l.stats.framesSent.Add(1)
		l.stats.msgsSent.Add(uint64(count))
		if count > 1 {
			l.stats.batchedMsgs.Add(uint64(count))
		}
		if _, err := l.w.Write(frame); err != nil {
			l.Close()
			return
		}
		// The write has returned, so nothing reads frame any more.
		flushed = frame
	}
}

// frameBufs recycles the refcounted frame buffers of the link serve path,
// where decoded INV values alias the frame (see decodeMsg): the serve loop
// holds the initial reference for the frame's duration and each zero-copy
// value holds its own, so the buffer returns to the pool only when the
// store (or a drop path) releases the last adopted value.
var frameBufs = refbuf.NewPool()

// nextMsg cuts the [1B type][4B length][body] entry at *off out of frame and
// moves *off past it; a length the frame does not hold is a truncated or
// hostile stream.
func nextMsg(frame []byte, off *int) (t uint8, body []byte, err error) {
	o := *off
	if o+5 > len(frame) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(frame[o+1:]))
	if n < 0 || o+5+n > len(frame) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	*off = o + 5 + n
	return frame[o], frame[o+5 : o+5+n], nil
}

// Serve reads frames from rd and dispatches messages to fn until error/EOF.
//
// A message is valid until fn returns. fn runs synchronously on the serve
// loop, and a decoded proto.ShardBatch's Msgs slice is scratch the loop
// reuses for the next batch (and clears once fn is back), so fn must copy out
// whatever it keeps: the inner messages — what every router forwards — are
// values of their own and stay valid; the slice holding them does not.
//
// rd is read by serveFrames; on a TCP conn on Linux the loop owns the conn's
// read deadline until it returns, as do ServeClientReqs and ServeClientResps.
func (l *Link) Serve(rd io.Reader, fn func(msg any)) error {
	var batch []proto.ShardMsg
	return serveFrames(rd, func(body []byte) error {
		return l.serveFrame(body, fn, &batch)
	})
}

// maxBatchScratch caps the decoded-batch scratch a serve loop keeps between
// frames (24 B an entry); a larger batch decodes into a slice of its own.
const maxBatchScratch = 1024

// serveFrame dispatches one frame body. It is copied out of the read buffer
// into a refcounted frame buffer: the serve loop's own reference lasts
// exactly the frame's duration, while zero-copy INV values decoded out of it
// carry their own references, so a frame with adopted values outlives this
// call and is pooled again only when the store releases the last one. batch
// is Serve's ShardBatch scratch.
func (l *Link) serveFrame(body []byte, fn func(msg any), batch *[]proto.ShardMsg) error {
	fb := frameBufs.Get(len(body))
	defer fb.Release()
	frame := fb.Bytes()
	copy(frame, body)
	count := int(binary.LittleEndian.Uint16(frame[:2]))
	off := 2
	l.stats.framesRecv.Add(1)
	for i := 0; i < count; i++ {
		t, body, err := nextMsg(frame, &off)
		if err != nil {
			return err
		}
		switch t {
		case tShardBatch:
			sb, err := decodeShardBatch(&reader{b: body}, fb, *batch)
			if err != nil {
				return err
			}
			l.stats.msgsRecv.Add(1)
			l.stats.coalescedRecv.Add(uint64(len(sb.Msgs)))
			var msg any = sb // boxed once for both consumers
			l.RepayCredits(l.implicitCredits(msg))
			fn(msg)
			if cap(sb.Msgs) <= maxBatchScratch {
				clear(sb.Msgs) // an idle link must not pin the last batch's messages
				*batch = sb.Msgs[:0]
			}
		default:
			msg, err := decodeMsg(t, body, fb)
			if err != nil {
				return err
			}
			l.stats.msgsRecv.Add(1)
			l.RepayCredits(l.implicitCredits(msg))
			fn(msg)
		}
	}
	return nil
}

// implicitCredits counts the credit repayments msg carries: one for a plain
// response, one per response inside a coalesced batch (each inner ACK repays
// the INV that was sent — and debited — individually).
func (l *Link) implicitCredits(msg any) int {
	if l.cfg.IsResponse == nil {
		return 0
	}
	if sb, ok := msg.(proto.ShardBatch); ok {
		n := 0
		for _, sm := range sb.Msgs {
			if l.cfg.IsResponse(sm.Msg) { // already an interface: no boxing
				n++
			}
		}
		return n
	}
	if l.cfg.IsResponse(msg) {
		return 1
	}
	return 0
}

// RepayCredits returns n implicitly recovered credits to this link's send
// window, capped at its size, and wakes the Sends waiting for them.
func (l *Link) RepayCredits(n int) {
	if n <= 0 {
		return
	}
	l.stats.implicitCreditsRecovered.Add(uint64(n))
	if l.cfg.Credits == 0 {
		return
	}
	l.mu.Lock()
	l.credits = min(l.credits+n, l.cfg.Credits)
	l.mu.Unlock()
	l.sendCond.Broadcast()
}

// Close shuts the link: blocked senders return, what is queued is dropped.
func (l *Link) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.sendCond.Broadcast()
}

// Stats snapshots link counters. Each field is read atomically; the snapshot
// as a whole is not, which is all its readers (tests at quiescence, the
// benchmark between phases) need.
func (l *Link) Stats() Stats {
	c := &l.stats
	return Stats{
		FramesSent: c.framesSent.Load(), MsgsSent: c.msgsSent.Load(),
		FramesRecv: c.framesRecv.Load(), MsgsRecv: c.msgsRecv.Load(),
		BatchedMsgs:              c.batchedMsgs.Load(),
		CreditStalls:             c.creditStalls.Load(),
		ImplicitCreditsRecovered: c.implicitCreditsRecovered.Load(),
		CoalescedSent:            c.coalescedSent.Load(),
		CoalescedRecv:            c.coalescedRecv.Load(),
		CreditsRefunded:          c.creditsRefunded.Load(),
		Shed:                     c.shed.Load(),
	}
}

// AppendFrame appends one wire frame carrying msgs to buf and returns the
// extended buffer. This is the batch encoder of the client serving layer's
// per-session response coalescer: responses that accumulated while a flush
// was in flight ship as one frame — one syscall, one header — exactly like
// the link flusher's opportunistic batching. At most maxFrameMsgs messages
// fit one frame (the header's count is 16-bit); callers split larger batches.
func AppendFrame(buf []byte, msgs ...any) ([]byte, error) {
	if len(msgs) == 0 || len(msgs) > maxFrameMsgs {
		return nil, fmt.Errorf("wings: frame of %d messages", len(msgs))
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0) // length + count placeholder
	for _, m := range msgs {
		var err error
		buf, err = appendMsg(buf, m)
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	binary.LittleEndian.PutUint16(buf[start+4:], uint16(len(msgs)))
	return buf, nil
}

// ServeClientReqs reads a client session's request stream from rd and hands
// each request to fn until read error, EOF, a malformed frame, or fn returning
// a non-nil error (which aborts the stream and is returned) — the server's
// typed door. It is Link.Serve without a link, an interface box or a type
// switch: admission is the session layer's, so there is no credit accounting,
// and the only tag a client may send is tClientReq — anything else (a mesh
// message, a tClientResp, the retired tCredit) is refused with
// ErrUnknownType before its body is looked at. The hostile-input discipline is Link.Serve's: frame
// lengths are bounded, per-message lengths validated against the frame, enum
// ranges enforced.
//
// *req lives in the loop and is overwritten by the next message, so it is
// valid until fn returns; its Value and Expected are private copies fn may
// keep (a write's value is the stored value from there on).
//
// keys, when non-nil, is handed the keys of a frame's requests before the
// first of them reaches fn, keyWindow at a time (the server prefetches them
// from its store). It sees only keys of requests the decoder accepts: the
// look-ahead stops at the first entry that would end the stream. The slice
// is valid until keys returns.
func ServeClientReqs(rd io.Reader, keys func([]proto.Key), fn func(req *proto.ClientReq) error) error {
	var req proto.ClientReq
	msg := func(t uint8, body []byte) error {
		if t != tClientReq {
			return ErrUnknownType
		}
		if err := readClientReq(&reader{b: body}, &req); err != nil {
			return err
		}
		return fn(&req)
	}
	var ahead *keyAhead
	if keys != nil {
		ahead = &keyAhead{fn: keys}
	}
	return serveFrames(rd, func(frame []byte) error {
		return eachMsg(frame, ahead, msg)
	})
}

// keyWindow is how many requests' keys one call of ServeClientReqs' key hook
// carries.
const keyWindow = 32

// keyAhead is ServeClientReqs' key hook and the buffer it is handed.
type keyAhead struct {
	fn  func([]proto.Key)
	buf [keyWindow]proto.Key
}

// scan hands fn the keys of up to keyWindow entries of frame, the first at
// off and left of them still in the frame. It stops at the first entry the
// serve loop would refuse — a broken length, another tag, a body
// readClientReq rejects — so fn never sees a key the decoder refuses.
func (a *keyAhead) scan(frame []byte, off, left int) {
	keys := a.buf[:0]
	for ; left > 0 && len(keys) < keyWindow; left-- {
		t, body, err := nextMsg(frame, &off)
		if err != nil || t != tClientReq {
			break
		}
		k, ok := clientReqKey(body)
		if !ok {
			break
		}
		keys = append(keys, k)
	}
	if len(keys) > 0 {
		a.fn(keys)
	}
}

// ServeClientResps is Serve for the client side of a session — the client's
// typed door: it reads the server's response stream from rd and hands each
// response to fn until error/EOF. A server sends responses only; any other
// tag is refused with ErrUnknownType before its body is looked at, so a
// hostile server cannot make the client decode a 16 MiB ChunkResp. Each
// response repays the credit its request spent (SendClientReq), a frame's
// worth in one RepayCredits once fn has seen them all. FramesRecv and
// MsgsRecv count what Serve counts.
//
// *resp lives in the loop: valid until fn returns, its Value a private copy
// fn may keep.
func (l *Link) ServeClientResps(rd io.Reader, fn func(resp *proto.ClientResp)) error {
	return serveFrames(rd, l.clientRespFrames(fn))
}

// clientRespFrames is ServeClientResps' frame handler.
func (l *Link) clientRespFrames(fn func(resp *proto.ClientResp)) func(frame []byte) error {
	var resp proto.ClientResp
	resps := 0 // in the frame being served
	msg := func(t uint8, body []byte) error {
		if t != tClientResp {
			return ErrUnknownType
		}
		if err := readClientResp(&reader{b: body}, &resp); err != nil {
			return err
		}
		resps++
		fn(&resp)
		return nil
	}
	return func(frame []byte) error {
		resps = 0
		if err := eachMsg(frame, nil, msg); err != nil {
			return err
		}
		l.stats.framesRecv.Add(1)
		l.stats.msgsRecv.Add(uint64(resps))
		l.RepayCredits(resps)
		return nil
	}
}

// eachMsg hands msg the tag and body of each entry of a client-session frame
// body, in place; a non-nil error from msg ends the frame and is returned.
// A non-nil ahead scans the next keyWindow entries before every keyWindow-th
// entry is handed over.
func eachMsg(frame []byte, ahead *keyAhead, msg func(t uint8, body []byte) error) error {
	count := int(binary.LittleEndian.Uint16(frame))
	for i, off := 0, 2; i < count; i++ {
		if ahead != nil && i%keyWindow == 0 {
			ahead.scan(frame, off, count-i)
		}
		t, body, err := nextMsg(frame, &off)
		if err != nil {
			return err
		}
		if err := msg(t, body); err != nil {
			return err
		}
	}
	return nil
}

// AppendClientResps appends one wire frame carrying resps to buf — the
// monomorphic sibling of AppendFrame for the serving layer's flusher: no
// []any boxing per response, so a steady-state flush into a reused buffer
// performs zero allocations. The wire bytes are identical to
// AppendFrame(buf, resps...). At most MaxFrameMsgs responses fit one frame;
// callers split larger batches.
func AppendClientResps(buf []byte, resps []proto.ClientResp) ([]byte, error) {
	if len(resps) == 0 || len(resps) > maxFrameMsgs {
		return nil, fmt.Errorf("wings: frame of %d messages", len(resps))
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0) // length + count placeholder
	for i := range resps {
		m := &resps[i]
		if m.Status > proto.NotOperational {
			return nil, ErrBadEnum
		}
		s := len(buf)
		buf = append(buf, tClientResp, 0, 0, 0, 0)
		buf = appendClientRespBody(buf, m)
		binary.LittleEndian.PutUint32(buf[s+1:], uint32(len(buf)-s-5))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	binary.LittleEndian.PutUint16(buf[start+4:], uint16(len(resps)))
	return buf, nil
}

// Encode serializes a single message into a standalone frame (tests, and
// the text protocol of cmd/hermes-node uses it for loopback checks).
func Encode(msg any) ([]byte, error) {
	body, err := appendMsg(nil, msg)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 6, 6+len(body))
	binary.LittleEndian.PutUint32(out, uint32(len(body)+2))
	binary.LittleEndian.PutUint16(out[4:], 1)
	return append(out, body...), nil
}

// DecodeOne parses a single-message frame produced by Encode.
func DecodeOne(frame []byte) (any, error) {
	if len(frame) < 11 {
		return nil, io.ErrUnexpectedEOF
	}
	t := frame[6]
	n := int(binary.LittleEndian.Uint32(frame[7:]))
	if 11+n > len(frame) {
		return nil, io.ErrUnexpectedEOF
	}
	return decodeMsg(t, frame[11:11+n], nil)
}
