package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/wings"
)

// Tracing is done from outside the program: the wrappers below sit around
// the public boundary of a layer (server.Backend, cluster.Transport, the
// client's Do) and stamp calls into it. They run on session goroutines, shard
// event loops and mesh readers, so when tracing is off they cost one atomic
// load, and when it is on they take no lock and send on no channel; only a
// sampled SubmitAsync allocates (the closure that stamps its completion).
//
// What cannot be seen from here: how long an op waited in a shard's inbox,
// which shard served it, and where inside a handler turn the time went.

type spanKind uint8

const (
	spanDoCall    spanKind = iota // client.Do call → return
	spanReadLocal                 // Backend.ReadLocalRetained call → return
	spanSubmit                    // Backend.SubmitAsync call → completion callback
	spanSend                      // Transport.Send call → return
	spanInvAck                    // first Send of an INV → Deliver of its last ACK
	spanKinds
)

var spanNames = [spanKinds]string{"client.do", "server.readlocal", "server.submit", "transport.send", "transport.inv_ack"}

// span is one stamped interval. id ties the spans of one op together where
// the boundary shows an identity: opID of the value header for writes at the
// client and the backend, the key for reads, a hash of (Key, TS) at the
// transport.
type span struct {
	id         uint64
	start, end int64
}

// ringLen spans are kept per kind; older ones are overwritten and counted.
const ringLen = 1 << 16

type ring struct {
	n    atomic.Uint64 // slots handed out
	done atomic.Uint64 // slots filled; loading it orders a reader after those writes
	buf  [ringLen]span
}

func (r *ring) put(s span) {
	r.buf[(r.n.Add(1)-1)%ringLen] = s
	r.done.Add(1)
}

// filled is how many of the ring's slots hold a span. Call at quiescence.
func (r *ring) filled() uint64 { return min(r.done.Load(), ringLen) }

// sampleEvery thins the per-call spans; INVs are sampled by identity instead
// so that both ends of the pairing agree.
const (
	sampleEvery   = 8
	invSampleMask = 7
	bytesEvery    = 64
	pairSlots     = 1 << 12
)

// pairSlot remembers one sampled INV until its last ACK is delivered.
type pairSlot struct {
	id    atomic.Uint64 // 0: free
	start atomic.Int64
	acks  atomic.Int32
}

// tracer is shared by every wrapper of a testbed, so its counters are sums
// over the three replicas.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	ticks [spanKinds]atomic.Uint64 // per kind, so that kinds called in lockstep do not starve one another
	rings [spanKinds]ring

	sends       atomic.Uint64
	invs        atomic.Uint64
	acks        atomic.Uint64
	vals        atomic.Uint64
	others      atomic.Uint64
	bytesSample atomic.Uint64 // encoded bytes of every bytesEvery-th Send
	pairs       [pairSlots]pairSlot
	pairsLost   atomic.Uint64 // sampled INVs that found their slot taken
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) sample(k spanKind) bool { return t.ticks[k].Add(1)%sampleEvery == 0 }

// reset forgets everything recorded so far; call at quiescence.
func (t *tracer) reset() {
	for k := range t.rings {
		t.rings[k].n.Store(0)
		t.rings[k].done.Store(0)
	}
	for _, c := range []*atomic.Uint64{&t.sends, &t.invs, &t.acks, &t.vals, &t.others, &t.bytesSample, &t.pairsLost} {
		c.Store(0)
	}
	for i := range t.pairs {
		t.pairs[i].id.Store(0)
		t.pairs[i].acks.Store(0)
	}
}

// durations returns the sorted lengths, in ns, of the kind's retained spans.
func (t *tracer) durations(k spanKind) []uint32 {
	r := &t.rings[k]
	out := make([]uint32, r.filled())
	for i := range out {
		out[i] = uint32(min(r.buf[i].end-r.buf[i].start, int64(^uint32(0))))
	}
	slices.Sort(out)
	return out
}

// dropped counts spans overwritten in the rings or lost to pairing clashes.
func (t *tracer) dropped() uint64 {
	d := t.pairsLost.Load()
	for k := range t.rings {
		if n := t.rings[k].done.Load(); n > ringLen {
			d += n - ringLen
		}
	}
	return d
}

// writeSpans dumps the rings as "kind id start_ns end_ns" lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for k := range t.rings {
		r := &t.rings[k]
		for i := uint64(0); i < r.filled(); i++ {
			s := r.buf[i]
			fmt.Fprintf(w, "%s %x %d %d\n", spanNames[k], s.id, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeOpID(session, seq uint64) uint64 { return session<<56 | seq }
func readOpID(key proto.Key) uint64        { return 1<<63 | uint64(key) }

// tracedBackend wraps a served node: server.Backend and RetainedReader.
type tracedBackend struct {
	node *cluster.ShardedNode
	tr   *tracer
}

func (b *tracedBackend) ReadLocal(key proto.Key) (proto.Value, bool) {
	return b.node.ReadLocal(key)
}

func (b *tracedBackend) ReadLocalRetained(key proto.Key) (proto.Value, *refbuf.Buf, bool) {
	if !b.tr.on.Load() || !b.tr.sample(spanReadLocal) {
		return b.node.ReadLocalRetained(key)
	}
	start := b.tr.now()
	v, owner, ok := b.node.ReadLocalRetained(key)
	b.tr.rings[spanReadLocal].put(span{id: readOpID(key), start: start, end: b.tr.now()})
	return v, owner, ok
}

func (b *tracedBackend) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	if !b.tr.on.Load() || !b.tr.sample(spanSubmit) {
		return b.node.SubmitAsync(op, fn)
	}
	id := readOpID(op.Key)
	if op.Kind == proto.OpWrite && len(op.Value) >= headerLen {
		id = writeOpID(getHeader(op.Value))
	}
	start := b.tr.now()
	return b.node.SubmitAsync(op, func(c proto.Completion) {
		b.tr.rings[spanSubmit].put(span{id: id, start: start, end: b.tr.now()})
		fn(c)
	})
}

// tracedTransport wraps one replica's mesh: cluster.Transport.
type tracedTransport struct {
	inner cluster.Transport
	tr    *tracer
}

func invID(key proto.Key, ts proto.TS) uint64 {
	h := uint64(key)*0x9e3779b97f4a7c15 ^ uint64(ts.Version)<<16 ^ uint64(ts.CID)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h | 1 // never the free marker
}

// count files one protocol message under its type, looking through the
// shard envelopes, and starts or finishes INV→ACK pairings.
func (t *tracer) count(msg any, sending bool, now int64) {
	switch m := msg.(type) {
	case proto.ShardBatch:
		for _, sm := range m.Msgs {
			t.count(sm.Msg, sending, now)
		}
	case proto.ShardMsg:
		t.count(m.Msg, sending, now)
	case core.INV:
		if sending {
			t.invs.Add(1)
			t.invSent(invID(m.Key, m.TS), now)
		}
	case core.ACK:
		if sending {
			t.acks.Add(1)
		} else {
			t.ackDelivered(invID(m.Key, m.TS), now)
		}
	case core.VAL:
		if sending {
			t.vals.Add(1)
		}
	default:
		if sending {
			t.others.Add(1)
		}
	}
}

// invSent opens a pairing at the first Send of a sampled INV; the sends to
// the other followers and any retransmission find it open and leave it.
func (t *tracer) invSent(id uint64, now int64) {
	if id>>1&invSampleMask != 0 {
		return
	}
	p := &t.pairs[id>>8%pairSlots]
	if p.id.CompareAndSwap(0, id) {
		p.start.Store(now)
	} else if p.id.Load() != id {
		t.pairsLost.Add(1)
	}
}

// ackDelivered closes the pairing when the last follower's ACK arrives.
func (t *tracer) ackDelivered(id uint64, now int64) {
	if id>>1&invSampleMask != 0 {
		return
	}
	p := &t.pairs[id>>8%pairSlots]
	if p.id.Load() != id {
		return
	}
	if p.acks.Add(1) == replicas-1 {
		t.rings[spanInvAck].put(span{id: id, start: p.start.Load(), end: now})
		p.acks.Store(0)
		p.id.Store(0)
	}
}

func (t *tracedTransport) Send(from, to proto.NodeID, msg any) {
	tr := t.tr
	if !tr.on.Load() {
		t.inner.Send(from, to, msg)
		return
	}
	start := tr.now()
	tr.count(msg, true, start)
	n := tr.sends.Add(1)
	if n%bytesEvery == 1 { // never a send whose span is kept: the encode would be in it
		// Encode copies the value bytes and leaves the message's buffer
		// references alone; inner.Send below still consumes them.
		if b, err := wings.Encode(msg); err == nil {
			tr.bytesSample.Add(uint64(len(b)))
		}
	}
	t.inner.Send(from, to, msg)
	if n%sampleEvery == 0 {
		tr.rings[spanSend].put(span{id: n, start: start, end: tr.now()})
	}
}

func (t *tracedTransport) SetDeliver(id proto.NodeID, fn func(from proto.NodeID, msg any)) {
	t.inner.SetDeliver(id, func(from proto.NodeID, msg any) {
		if t.tr.on.Load() {
			t.tr.count(msg, false, t.tr.now())
		}
		fn(from, msg)
	})
}

func (t *tracedTransport) Close() error { return t.inner.Close() }
