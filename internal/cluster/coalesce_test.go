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
	"repro/internal/wings"
)

// recTransport records what it is sent, in order.
type recTransport struct {
	mu   sync.Mutex
	sent []sentMsg
}

type sentMsg struct {
	to  proto.NodeID
	msg any
}

func (r *recTransport) Send(from, to proto.NodeID, msg any) {
	if sb, ok := msg.(proto.ShardBatch); ok {
		// Recording is retaining: the Transport contract lets the shard
		// recycle the batch's slice once Send returns, so keep a copy.
		msg = proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)}
	}
	r.mu.Lock()
	r.sent = append(r.sent, sentMsg{to, msg})
	r.mu.Unlock()
}

func (r *recTransport) SetDeliver(id proto.NodeID, fn func(proto.NodeID, any)) {}
func (r *recTransport) Close() error                                           { return nil }

func (r *recTransport) sends() []sentMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sentMsg(nil), r.sent...)
}

// entries unpacks one Send's argument into the shard messages it carries.
func entries(t *testing.T, m any) []proto.ShardMsg {
	t.Helper()
	switch f := m.(type) {
	case proto.ShardBatch:
		return f.Msgs
	case proto.ShardMsg:
		return []proto.ShardMsg{f}
	}
	t.Fatalf("unexpected send %T", m)
	return nil
}

// stagingNode is a 4-shard node over a recording transport, and an egress of
// the test's own: the node's belong to its event loops.
func stagingNode(t *testing.T) (*ShardedNode, *shardTransport, *recTransport) {
	t.Helper()
	tr := &recTransport{}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}},
		Shards: 4,
	}, tr)
	t.Cleanup(sn.Close)
	return sn, &shardTransport{sn: sn, idx: 3}, tr
}

// TestHandOffSendsOncePerStage: a burst leaves as one Send per non-empty
// (peer, class) stage — a lone message as a plain ShardMsg, company as one
// ShardBatch in send order — peer by peer with responses first, whatever
// order the engine addressed them in; and the hand-off is where CoalesceStats
// counts.
func TestHandOffSendsOncePerStage(t *testing.T) {
	sn, st, tr := stagingNode(t)
	ack := func(key proto.Key) core.ACK { return core.ACK{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	val := func(key proto.Key) core.VAL { return core.VAL{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	inv := func(key proto.Key) core.INV { return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 1}} }
	tag := func(msgs ...any) any {
		if len(msgs) == 1 {
			return proto.ShardMsg{Shard: 3, Msg: msgs[0]}
		}
		var sb proto.ShardBatch
		for _, m := range msgs {
			sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: 3, Msg: m})
		}
		return sb
	}

	st.Send(1, ack(10))
	st.handOff()
	st.Send(1, ack(11))
	st.Send(1, ack(12))
	st.Send(1, ack(13))
	st.handOff()
	st.handOff() // nothing staged: nothing sent
	want := []sentMsg{{1, tag(ack(10))}, {1, tag(ack(11), ack(12), ack(13))}}
	if got := tr.sends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sends:\n got %#v\nwant %#v", got, want)
	}
	if batches, coalesced, singles, dropped := sn.CoalesceStats(); batches != 1 || coalesced != 3 || singles != 1 || dropped != 0 {
		t.Fatalf("CoalesceStats = (%d,%d,%d,%d), want (1,3,1,0)", batches, coalesced, singles, dropped)
	}

	// Addressed INV-first and far peer first; sent by peer, ACK VAL INV.
	st.Send(2, inv(20))
	st.Send(2, val(21))
	st.Send(1, inv(22))
	st.Send(1, val(23))
	st.Send(2, ack(24))
	st.Send(1, inv(25))
	st.handOff()
	want = append(want,
		sentMsg{1, tag(val(23))}, sentMsg{1, tag(inv(22), inv(25))},
		sentMsg{2, tag(ack(24))}, sentMsg{2, tag(val(21))}, sentMsg{2, tag(inv(20))})
	if got := tr.sends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sends after the mixed burst:\n got %#v\nwant %#v", got, want)
	}
}

// TestCoalescerSeparatesCreditClasses drives ACKs, VALs and INVs for one peer
// through the shard transports and checks no Send ever mixes the classes: a
// batch is priced as a whole, and an all-ACK batch must stay free of charge
// so that ACK egress (which repays the peer) never waits for credits.
func TestCoalescerSeparatesCreditClasses(t *testing.T) {
	_, st, tr := stagingNode(t)
	for i := 0; i < 4; i++ {
		st.idx = uint16(i)
		for j := 0; j < 3; j++ {
			k := proto.Key(10*i + j)
			st.Send(1, core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			st.Send(1, core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			st.Send(1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
		}
		st.handOff() // no event loop here: the test ends each shard's burst itself
	}
	total := 0
	for _, s := range tr.sends() {
		classes := map[msgClass]int{}
		for _, sm := range entries(t, s.msg) {
			classes[classOf(sm.Msg)]++
			total++
		}
		if len(classes) != 1 {
			t.Fatalf("one Send mixes credit classes: %v", classes)
		}
	}
	if total != 4*3*3 {
		t.Fatalf("%d messages sent, want %d", total, 4*3*3)
	}
}

// TestCoalescerBudgetsRequestBatches stages value-bearing INVs and checks the
// request class's two budgets. Bytes: a stage leaves as several batches none
// of which exceeds maxBatchBytes, while an INV too big for the budget on its
// own still ships, alone. Count: a batch's credit price is its count, so a
// 1000-INV stage must not leave as one batch priced at a level the window
// (1024, less what one-way traffic holds) may never reach.
func TestCoalescerBudgetsRequestBatches(t *testing.T) {
	inv := func(key proto.Key, valLen int) core.INV {
		return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 1}, Value: make(proto.Value, valLen)}
	}
	if classOf(inv(0, 8)) != classRequest {
		t.Fatal("INVs must coalesce in the request class")
	}
	sizes := func(tr *recTransport) (msgs, bytes []int) {
		for _, s := range tr.sends() {
			n := 0
			for _, sm := range entries(t, s.msg) {
				n += shardMsgSize(sm)
			}
			msgs, bytes = append(msgs, len(entries(t, s.msg))), append(bytes, n)
		}
		return msgs, bytes
	}

	t.Run("bytes", func(t *testing.T) {
		_, st, tr := stagingNode(t)
		// 5 × (32 + 20 KiB) is over the 64 KiB budget: 3 fit, the next would
		// overflow. Then two INVs each over the budget alone: the i>0 guard
		// must let every one ship instead of cutting to an empty batch.
		const val, jumbo = 20 << 10, 80 << 10
		for k := proto.Key(1); k <= 5; k++ {
			st.Send(1, inv(k, val))
		}
		st.Send(1, inv(6, jumbo))
		st.Send(1, inv(7, jumbo))
		st.handOff()
		msgs, bytes := sizes(tr)
		if want := []int{3, 2, 1, 1}; !reflect.DeepEqual(msgs, want) {
			t.Fatalf("stage left as batches of %v messages, want %v", msgs, want)
		}
		for i, n := range bytes {
			if msgs[i] > 1 && n > maxBatchBytes {
				t.Fatalf("batch %d: %d bytes exceeds the %d budget", i, n, maxBatchBytes)
			}
		}
		for _, i := range []int{2, 3} {
			if _, ok := tr.sends()[i].msg.(proto.ShardMsg); !ok || bytes[i] <= maxBatchBytes {
				t.Fatalf("send %d: %T of %d bytes, want a lone ShardMsg over the budget", i, tr.sends()[i].msg, bytes[i])
			}
		}
	})

	t.Run("count", func(t *testing.T) {
		_, st, tr := stagingNode(t)
		for k := proto.Key(0); k < 1000; k++ {
			st.Send(1, inv(k, 8))
		}
		st.handOff()
		msgs, _ := sizes(tr)
		if want := []int{256, 256, 256, 232}; !reflect.DeepEqual(msgs, want) {
			t.Fatalf("1000 INVs left as batches of %v, want %v", msgs, want)
		}
		next := proto.Key(0)
		for _, s := range tr.sends() {
			for _, sm := range entries(t, s.msg) {
				if k := sm.Msg.(core.INV).Key; k != next {
					t.Fatalf("INV %d sent where %d was due: the split reordered the stage", k, next)
				}
				next++
			}
		}
	})
}

// slowTransport delays every Send slightly, standing in for a loaded host:
// while a shard is held up its inbox fills, so its next burst has several
// messages for one peer — which the instantaneous ChanTransport on an idle
// machine would rarely let happen.
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
// (b) the shards' bursts actually formed batches under the concurrency.
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
	// the SAME peer in one shard's burst, which only happens when a
	// coordinator has concurrent writes on the same shard.
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
type countTransport struct{ msgs atomic.Uint64 }

func (c *countTransport) Send(from, to proto.NodeID, msg any) {
	n := 1
	if sb, ok := msg.(proto.ShardBatch); ok {
		n = len(sb.Msgs)
	}
	core.ReleaseMsgOwners(msg) // a transport spends what it does not deliver
	c.msgs.Add(uint64(n))
}
func (c *countTransport) SetDeliver(proto.NodeID, func(proto.NodeID, any)) {}
func (c *countTransport) Close() error                                     { return nil }

// TestCoalescerBurstAllocationBudget: staging and sending a burst allocates
// nothing in the shard — the stages are warm arrays — so what is left is one
// box per non-empty stage: the ShardBatch (or lone ShardMsg) envelope boxed
// for Transport.Send(any).
func TestCoalescerBurstAllocationBudget(t *testing.T) {
	tr := &countTransport{}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2,
	}, tr)
	defer sn.Close()
	st := &shardTransport{sn: sn, idx: 1}
	var acks, vals [16]any // boxed once, as the engine's Send argument already is
	for i := range acks {
		acks[i] = core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}
		vals[i] = core.VAL{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}
	}
	burst := func(stages ...[16]any) func() {
		return func() {
			for _, msgs := range stages {
				for _, m := range msgs {
					st.Send(1, m)
				}
			}
			st.handOff()
		}
	}
	burst(acks, vals)() // grows the stages
	if n := testing.AllocsPerRun(200, burst(acks)); n > 1 {
		t.Fatalf("a 16-ACK burst allocates %.0f times, want <= 1 (the boxed envelope)", n)
	}
	if n := testing.AllocsPerRun(200, burst(acks, vals)); n > 2 {
		t.Fatalf("a burst of two 16-message stages allocates %.0f times, want <= 2 (one boxed envelope each)", n)
	}
	if got, want := tr.msgs.Load(), uint64(32+201*16+201*32); got != want {
		t.Fatalf("transport saw %d messages, want %d", got, want)
	}
	for _, stage := range st.stages {
		for i, sm := range stage.msgs[:cap(stage.msgs)] {
			if sm.Msg != nil {
				t.Fatalf("recycled stage entry %d still references a sent message", i)
			}
		}
	}
}

// linkTransport sends to one peer through a wings.Link, as transport.Mesh
// does.
type linkTransport struct{ l *wings.Link }

func (lt linkTransport) Send(from, to proto.NodeID, msg any)              { _ = lt.l.Post(msg) }
func (lt linkTransport) SetDeliver(proto.NodeID, func(proto.NodeID, any)) {}
func (lt linkTransport) Close() error                                     { return nil }

// countingWriter counts the Writes a link's flusher makes.
type countingWriter struct{ writes atomic.Uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return len(p), nil
}

// TestOneWritePerPeerPerBurst: a burst with an ACK, a VAL and an INV stage
// for one peer makes three Sends, and over a link they cost one flusher
// start, one frame and one Write. The first Send starts the flusher; on one
// P it cannot run before the event loop yields, so the other two are queued
// by then — on more, the adjacency of one peer's sends is what keeps the
// window small.
func TestOneWritePerPeerPerBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := &countingWriter{}
	l := wings.NewLink(w, wings.LinkConfig{Credits: 1024, IsResponse: core.IsResponseMsg})
	defer l.Close()
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2,
	}, linkTransport{l})
	defer sn.Close()
	st := &shardTransport{sn: sn, idx: 1}

	for burst := uint64(1); burst <= 3; burst++ {
		for k := proto.Key(0); k < 4; k++ {
			st.Send(1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 2}, Value: proto.Value("v")})
			st.Send(1, core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 2}})
			st.Send(1, core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 2}})
		}
		st.handOff()
		if n := w.writes.Load(); n != burst-1 {
			t.Fatalf("burst %d: %d writes before the event loop yielded, want %d", burst, n, burst-1)
		}
		for w.writes.Load() < burst {
			runtime.Gosched()
		}
		// A frame is counted before it is written: a second one would show.
		if st := l.Stats(); st.FramesSent != burst || st.MsgsSent != 3*burst || st.CoalescedSent != 12*burst {
			t.Fatalf("burst %d: %d frames carrying %d batches of %d messages, want %d, %d and %d",
				burst, st.FramesSent, st.MsgsSent, st.CoalescedSent, burst, 3*burst, 12*burst)
		}
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
