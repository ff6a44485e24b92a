package cluster

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// gateTransport records sends and can block them, exposing the coalescer's
// opportunistic gathering deterministically: while one flush is stuck in
// Send, everything else enqueued for that peer must pile into one batch.
type gateTransport struct {
	mu    sync.Mutex
	sent  []any
	gate  chan struct{} // nil = sends pass; else Send blocks on it
	sendC chan struct{} // signaled at entry to Send
}

func (g *gateTransport) Send(from, to proto.NodeID, msg any) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	select {
	case g.sendC <- struct{}{}:
	default:
	}
	if gate != nil {
		<-gate
	}
	if sb, ok := msg.(proto.ShardBatch); ok {
		// Recording is retaining: the Transport contract lets the coalescer
		// recycle the batch's slice once Send returns, so keep a copy.
		msg = proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)}
	}
	g.mu.Lock()
	g.sent = append(g.sent, msg)
	g.mu.Unlock()
}

func (g *gateTransport) SetDeliver(id proto.NodeID, fn func(proto.NodeID, any)) {}
func (g *gateTransport) Close() error                                           { return nil }

func (g *gateTransport) msgs() []any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]any(nil), g.sent...)
}

// TestCoalescerGathersWhileSendInFlight drives the per-peer coalescer
// directly: with the transport gated shut after admitting one flush, three
// more ACKs enqueue behind it and must ship as a single ShardBatch frame
// once the gate opens.
func TestCoalescerGathersWhileSendInFlight(t *testing.T) {
	gate := make(chan struct{})
	tr := &gateTransport{gate: gate, sendC: make(chan struct{}, 1)}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 4,
	}, tr)
	defer sn.Close()

	ack := func(shard uint16, key proto.Key) proto.ShardMsg {
		return proto.ShardMsg{Shard: shard, Msg: core.ACK{Epoch: 1, Key: key, TS: proto.TS{Version: 1}}}
	}

	co := sn.coalescerFor(coalKey{to: 1, class: classResponse}) // ACKs are responses
	co.enqueueAll([]proto.ShardMsg{ack(0, 10)})
	// Wait until the flusher is inside Send (blocked on the gate) so the
	// next three hand-offs cannot race ahead of it.
	select {
	case <-tr.sendC:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the transport")
	}
	co.enqueueAll([]proto.ShardMsg{ack(1, 11)})
	co.enqueueAll([]proto.ShardMsg{ack(2, 12), ack(3, 13)})
	close(gate)

	deadline := time.After(5 * time.Second)
	for {
		if len(tr.msgs()) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("coalescer shipped %d frames, want 2", len(tr.msgs()))
		case <-time.After(time.Millisecond):
		}
	}
	sent := tr.msgs()
	if len(sent) != 2 {
		t.Fatalf("got %d frames, want 2 (one single + one batch): %#v", len(sent), sent)
	}
	if !reflect.DeepEqual(sent[0], ack(0, 10)) {
		t.Fatalf("first flush should be the lone ShardMsg, got %#v", sent[0])
	}
	batch, ok := sent[1].(proto.ShardBatch)
	if !ok {
		t.Fatalf("second flush is %T, want ShardBatch", sent[1])
	}
	want := proto.ShardBatch{Msgs: []proto.ShardMsg{ack(1, 11), ack(2, 12), ack(3, 13)}}
	if !reflect.DeepEqual(batch, want) {
		t.Fatalf("batch contents:\n got %#v\nwant %#v", batch, want)
	}
	if batches, coalesced, singles, dropped := sn.CoalesceStats(); batches != 1 || coalesced != 3 || singles != 1 || dropped != 0 {
		t.Fatalf("CoalesceStats = (%d,%d,%d,%d), want (1,3,1,0)", batches, coalesced, singles, dropped)
	}
}

// TestCoalescerSeparatesCreditClasses drives ACKs and VALs for one peer
// through the shard transports and checks no flushed batch ever mixes the
// classes: an all-ACK batch consumes no send credit, so ACK egress (which
// repays the peer) must never queue behind a credit-starved VAL batch.
func TestCoalescerSeparatesCreditClasses(t *testing.T) {
	gate := make(chan struct{})
	tr := &gateTransport{gate: gate, sendC: make(chan struct{}, 2)}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 4,
	}, tr)
	defer sn.Close()

	st := &shardTransport{sn: sn, idx: 0}
	for i := 0; i < 4; i++ {
		st.idx = uint16(i)
		st.Send(1, core.ACK{Epoch: 1, Key: proto.Key(10 + i), TS: proto.TS{Version: 1}})
		st.Send(1, core.VAL{Epoch: 1, Key: proto.Key(20 + i), TS: proto.TS{Version: 1}})
		st.handOff() // no event loop here: the test ends each shard's burst itself
	}
	close(gate)

	deadline := time.After(5 * time.Second)
	acks, vals := 0, 0
	for acks < 4 || vals < 4 {
		if len(tr.msgs()) == 0 {
			select {
			case <-deadline:
				t.Fatalf("flushed %d ACKs / %d VALs of 4+4", acks, vals)
			case <-time.After(time.Millisecond):
			}
		}
		acks, vals = 0, 0
		for _, m := range tr.msgs() {
			var entries []proto.ShardMsg
			switch f := m.(type) {
			case proto.ShardBatch:
				entries = f.Msgs
			case proto.ShardMsg:
				entries = []proto.ShardMsg{f}
			default:
				t.Fatalf("unexpected frame %T", m)
			}
			frameACKs, frameVALs := 0, 0
			for _, sm := range entries {
				switch sm.Msg.(type) {
				case core.ACK:
					frameACKs++
				case core.VAL:
					frameVALs++
				default:
					t.Fatalf("unexpected entry %T", sm.Msg)
				}
			}
			if frameACKs > 0 && frameVALs > 0 {
				t.Fatalf("frame mixes credit classes: %d ACKs and %d VALs", frameACKs, frameVALs)
			}
			acks += frameACKs
			vals += frameVALs
		}
	}
}

// TestCoalescerBudgetsRequestBatches drives the request-class (INV)
// coalescer with value-bearing messages and checks the byte budget: a
// backlog flushes as several frames none of which exceeds maxBatchBytes,
// while an INV too big for the budget on its own still ships (alone) rather
// than wedging the flusher.
func TestCoalescerBudgetsRequestBatches(t *testing.T) {
	inv := func(key proto.Key, valLen int) proto.ShardMsg {
		return proto.ShardMsg{Shard: 0, Msg: core.INV{
			Epoch: 1, Key: key, TS: proto.TS{Version: 1},
			Value: make(proto.Value, valLen),
		}}
	}
	if classOf(inv(0, 8).Msg) != classRequest {
		t.Fatal("INVs must coalesce in the request class")
	}

	gate := make(chan struct{})
	tr := &gateTransport{gate: gate, sendC: make(chan struct{}, 1)}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 4,
	}, tr)
	defer sn.Close()

	co := sn.coalescerFor(coalKey{to: 1, class: classRequest})
	co.enqueueAll([]proto.ShardMsg{inv(1, 16)}) // admits the flusher into the gated Send
	select {
	case <-tr.sendC:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the transport")
	}
	// 5 × (32 + 20KiB) piles up behind the gate: over the 64 KiB budget, so
	// the backlog must split — 3 fit, the next would overflow.
	const val = 20 << 10
	var backlog []proto.ShardMsg
	for i := proto.Key(2); i <= 6; i++ {
		backlog = append(backlog, inv(i, val))
	}
	// Two INVs each individually over the budget: the i>0 guard must let
	// every one ship alone instead of cutting to an empty batch.
	const jumbo = 80 << 10
	co.enqueueAll(append(backlog, inv(7, jumbo), inv(8, jumbo)))
	close(gate)

	deadline := time.After(5 * time.Second)
	for len(tr.msgs()) < 5 {
		select {
		case <-deadline:
			t.Fatalf("coalescer shipped %d frames, want 5: %#v", len(tr.msgs()), tr.msgs())
		case <-time.After(time.Millisecond):
		}
	}
	sent := tr.msgs()
	if len(sent) != 5 {
		t.Fatalf("got %d frames, want 5", len(sent))
	}
	sizeOf := func(m any) (n, msgs int) {
		switch f := m.(type) {
		case proto.ShardBatch:
			for _, sm := range f.Msgs {
				n += shardMsgSize(sm)
			}
			return n, len(f.Msgs)
		case proto.ShardMsg:
			return shardMsgSize(f), 1
		}
		t.Fatalf("unexpected frame %T", m)
		return 0, 0
	}
	// Frame 0: the lone opener. Frames 1–2: the 20 KiB backlog split 3+2.
	// Frames 3–4: each jumbo alone.
	wantMsgs := []int{1, 3, 2, 1, 1}
	for i, m := range sent {
		n, msgs := sizeOf(m)
		if msgs != wantMsgs[i] {
			t.Fatalf("frame %d carries %d messages, want %d", i, msgs, wantMsgs[i])
		}
		if msgs > 1 && n > maxBatchBytes {
			t.Fatalf("frame %d: %d bytes exceeds the %d budget", i, n, maxBatchBytes)
		}
	}
	for _, i := range []int{3, 4} {
		sm, ok := sent[i].(proto.ShardMsg)
		if !ok {
			t.Fatalf("jumbo frame %d is %T, want a lone ShardMsg", i, sent[i])
		}
		if n := shardMsgSize(sm); n <= maxBatchBytes {
			t.Fatalf("jumbo frame %d is %d bytes; test lost its premise", i, n)
		}
	}
}

// slowTransport delays every Send slightly, standing in for a real wire:
// while one flush is in transit, concurrent shard engines pile more
// messages into the coalescers — which the instantaneous ChanTransport
// would rarely let happen.
type slowTransport struct {
	*ChanTransport
	delay time.Duration
}

func (s *slowTransport) Send(from, to proto.NodeID, msg any) {
	time.Sleep(s.delay)
	s.ChanTransport.Send(from, to, msg)
}

// TestShardedLocalCoalescesAndStaysCorrect runs a W=4 replica group with
// concurrent writers over a wire-speed transport and checks (a) all
// replicas converge — coalesced frames fan out correctly end to end — and
// (b) the egress coalescers actually formed batches under the concurrency.
func TestShardedLocalCoalescesAndStaysCorrect(t *testing.T) {
	const w = 4
	ids := []proto.NodeID{0, 1, 2}
	view := proto.View{Epoch: 1, Members: ids}
	tr := &slowTransport{ChanTransport: NewChanTransport(ids), delay: 100 * time.Microsecond}
	l := &ShardedLocal{Tr: tr.ChanTransport}
	for _, id := range ids {
		l.Nodes = append(l.Nodes, NewShardedNode(ShardedConfig{
			ID: id, View: view, MLT: 20 * time.Millisecond, Shards: w,
		}, tr))
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Several writer sessions per node: a batch needs 2+ ACKs (or VALs) for
	// the SAME peer in flight at once, which only happens when one
	// coordinator has concurrent writes on different shards.
	var wg sync.WaitGroup
	for ni, n := range l.Nodes {
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func(ni, s int, n *ShardedNode) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					k := proto.Key((s*10+j)%32 + 1)
					if err := n.Write(ctx, k, proto.Value(fmt.Sprintf("n%d-%d-%d", ni, s, j))); err != nil {
						t.Errorf("node %d write %d/%d: %v", ni, s, j, err)
						return
					}
				}
			}(ni, s, n)
		}
	}
	wg.Wait()

	for k := proto.Key(1); k <= 32; k++ {
		ref, err := l.Nodes[0].Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range l.Nodes[1:] {
			v, err := n.Read(ctx, k)
			if err != nil || string(v) != string(ref) {
				t.Fatalf("divergence on key %d: node %d has %q, node 0 has %q (%v)",
					k, n.ID(), v, ref, err)
			}
		}
	}

	var batches, coalesced uint64
	for _, n := range l.Nodes {
		b, c, _, _ := n.CoalesceStats()
		batches += b
		coalesced += c
	}
	if batches == 0 {
		t.Fatal("240 concurrent cross-shard writes formed no coalesced batches")
	}
	if coalesced < 2*batches {
		t.Fatalf("batches=%d carried only %d messages; batching is degenerate", batches, coalesced)
	}
}

// countTransport counts what it is sent and keeps nothing: the Transport
// contract's model citizen.
type countTransport struct {
	msgs atomic.Uint64
	gate chan struct{} // nil = sends pass; else Send blocks on it
}

func (c *countTransport) Send(from, to proto.NodeID, msg any) {
	if c.gate != nil {
		<-c.gate
	}
	n := 1
	if sb, ok := msg.(proto.ShardBatch); ok {
		n = len(sb.Msgs)
	}
	core.ReleaseMsgOwners(msg) // a transport spends what it does not deliver
	c.msgs.Add(uint64(n))
}
func (c *countTransport) SetDeliver(proto.NodeID, func(proto.NodeID, any)) {}
func (c *countTransport) Close() error                                     { return nil }

// TestCoalescerBurstAllocationBudget: staging, handing off and flushing a
// 16-message burst allocates nothing in the shard's stage or the coalescer —
// the stage is a warm array, the queue a recycled half of the double buffer,
// and the flusher starts without a closure. The one allocation left is the
// ShardBatch envelope boxed for Transport.Send(any). Each run waits for the
// flusher to exit, so every burst starts a new one: the buffers must survive
// the idle gap.
func TestCoalescerBurstAllocationBudget(t *testing.T) {
	tr := &countTransport{}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2,
	}, tr)
	defer sn.Close()
	// An egress of the test's own: the node's belong to its event loops.
	st := &shardTransport{sn: sn, idx: 1}
	co := sn.coalescerFor(coalKey{to: 1, class: classResponse})
	var burst [16]any // boxed once, as the engine's Send argument already is
	for i := range burst {
		burst[i] = core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}
	}
	idle := func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return !co.flushing
	}
	sent := uint64(0)
	flushBurst := func() {
		for _, m := range burst {
			st.Send(1, m)
		}
		st.handOff()
		sent += uint64(len(burst))
		for tr.msgs.Load() < sent || !idle() {
			runtime.Gosched()
		}
	}
	flushBurst() // grows the stage and the first buffer
	flushBurst() // brings that buffer back as the spare
	if n := testing.AllocsPerRun(200, flushBurst); n > 1 {
		t.Fatalf("a 16-message burst allocates %.0f times, want <= 1 (the boxed envelope)", n)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, buf := range [][]proto.ShardMsg{co.buf, co.spare, st.stages[0].msgs} {
		for i, sm := range buf[:cap(buf)] {
			if sm.Msg != nil {
				t.Fatalf("recycled queue entry %d still references a sent message", i)
			}
		}
	}
}

// TestCoalescerOverflowReleasesOwners fills a coalescer to just under its
// bound behind a wedged transport with INVs that each hold a reference on a
// pooled frame, then hands it a burst that straddles the bound and one that
// finds it full. What fits is admitted and the rest shed, counted message by
// message; shed messages must spend their references on the spot, and the
// queued ones when they finally ship: the frame's count returns to its
// baseline, and nothing is left reachable in the coalescer.
func TestCoalescerOverflowReleasesOwners(t *testing.T) {
	gate := make(chan struct{})
	tr := &countTransport{gate: gate}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2,
	}, tr)
	defer sn.Close()
	co := sn.coalescerFor(coalKey{to: 1, class: classRequest})

	frame := refbuf.NewPool().Get(8)
	invs := func(n int) []proto.ShardMsg {
		out := make([]proto.ShardMsg, n)
		for i := range out {
			frame.Retain()
			out[i] = proto.ShardMsg{Msg: core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 2}, Value: frame.Bytes(), Owner: frame}}
		}
		return out
	}
	co.enqueueAll(invs(1)) // taken by the flusher, which wedges in Send
	for {
		co.mu.Lock()
		taken := len(co.buf) == 0
		co.mu.Unlock()
		if taken {
			break
		}
		runtime.Gosched()
	}
	const room, over, late = 10, 100, 5
	co.enqueueAll(invs(maxCoalesceBuf - room))
	if _, _, _, dropped := sn.CoalesceStats(); dropped != 0 {
		t.Fatalf("dropped = %d with %d slots free", dropped, room)
	}
	co.enqueueAll(invs(room + over)) // straddles the bound: 10 in, 100 shed
	if _, _, _, dropped := sn.CoalesceStats(); dropped != over {
		t.Fatalf("dropped = %d after the straddling burst, want %d", dropped, over)
	}
	co.enqueueAll(invs(late)) // no room at all
	if _, _, _, dropped := sn.CoalesceStats(); dropped != over+late {
		t.Fatalf("dropped = %d, want %d", dropped, over+late)
	}
	co.mu.Lock()
	queued := len(co.buf)
	co.mu.Unlock()
	if queued != maxCoalesceBuf {
		t.Fatalf("queue holds %d messages, want it full at %d", queued, maxCoalesceBuf)
	}
	if got, want := frame.Refs(), int32(1+1+maxCoalesceBuf); got != want {
		t.Fatalf("frame refs with the queue full = %d, want %d (drops released, queued held)", got, want)
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for frame.Refs() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("frame refs after the drain = %d, want the baseline 1", frame.Refs())
		}
		time.Sleep(time.Millisecond)
	}
	if got := tr.msgs.Load(); got != 1+maxCoalesceBuf {
		t.Fatalf("transport saw %d messages, want %d", got, 1+maxCoalesceBuf)
	}
}

// TestRecycledBatchesOverChanTransport is the regression test for the
// Transport ownership rule: the coalescer clears and reuses a batch's slice
// as soon as Send returns, and ChanTransport hands messages to the receiving
// node's pump by reference — so it must queue a copy of the slice. With the
// copy missing, receivers route cleared (nil) entries and the race detector
// flags the pump reading what the flusher rewrites. Every node coordinates
// writes on both shards at once, so every peer pair carries batches both ways.
func TestRecycledBatchesOverChanTransport(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 20 * time.Millisecond}, 2)
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const writers, rounds, keys = 8, 40, 64
	var wg sync.WaitGroup
	for ni, n := range l.Nodes {
		for s := 0; s < writers; s++ {
			wg.Add(1)
			go func(ni, s int, n *ShardedNode) {
				defer wg.Done()
				for j := 0; j < rounds; j++ {
					k := proto.Key((s*rounds+j)%keys + 1)
					if err := n.Write(ctx, k, proto.Value(fmt.Sprintf("n%d-%d-%d", ni, s, j))); err != nil {
						t.Errorf("node %d write %d/%d: %v", ni, s, j, err)
						return
					}
				}
			}(ni, s, n)
		}
	}
	wg.Wait()

	for k := proto.Key(1); k <= keys; k++ {
		ref, err := l.Nodes[0].Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range l.Nodes[1:] {
			if v, err := n.Read(ctx, k); err != nil || string(v) != string(ref) {
				t.Fatalf("divergence on key %d: node %d has %q, node 0 has %q (%v)", k, n.ID(), v, ref, err)
			}
		}
	}
	var batches uint64
	for _, n := range l.Nodes {
		b, _, _, _ := n.CoalesceStats()
		batches += b
	}
	if batches == 0 {
		t.Fatal("no coalesced batch crossed the transport; the test lost its premise")
	}
}
