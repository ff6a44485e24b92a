package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/shardhost"
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

// countingWriter counts the Writes a link's flusher makes.
type countingWriter struct{ writes atomic.Uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return len(p), nil
}

// TestOneWritePerPeerPerBurst: a burst of ACKs, VALs and INVs for one peer
// leaves its stage as one Send, and over a link — what transport.Mesh sends
// through — costs one flusher start, one frame and one Write. A second Send
// to that peer in the same burst — a message that is not staged, say — is
// queued before the flusher runs: on one P it cannot run before the event
// loop yields, and on more the adjacency of one peer's sends is what keeps
// the window small.
func TestOneWritePerPeerPerBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := &countingWriter{}
	l := wings.NewLink(w, wings.LinkConfig{})
	defer l.Close()
	// Flush and Send never consult the clock or complete an op.
	st := shardhost.NewEgress(1, nodeEnv{}, func(_ proto.NodeID, msg any) { _ = l.Post(msg) })

	for burst := uint64(1); burst <= 3; burst++ {
		for k := proto.Key(0); k < 4; k++ {
			st.Send(1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 2}, Value: proto.Value("v")})
			st.Send(1, core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 2}})
			st.Send(1, core.VAL{Epoch: 1, Key: k, TS: proto.TS{Version: 2}})
		}
		st.Send(1, core.MCheck{Epoch: 1}) // not staged: the wire has it first
		st.Flush()
		if n := w.writes.Load(); n != burst-1 {
			t.Fatalf("burst %d: %d writes before the event loop yielded, want %d", burst, n, burst-1)
		}
		for w.writes.Load() < burst {
			runtime.Gosched()
		}
		// A frame is counted before it is written: a second one would show.
		if st := l.Stats(); st.FramesSent != burst || st.MsgsSent != 2*burst || st.CoalescedSent != 12*burst {
			t.Fatalf("burst %d: %d frames carrying %d messages, %d of them in batches; want %d, %d and %d",
				burst, st.FramesSent, st.MsgsSent, st.CoalescedSent, burst, 2*burst, 12*burst)
		}
	}
}

// TestRecycledBatchesOverChanTransport is the regression test for the
// Transport ownership rule: the egress stager clears and reuses a batch's slice
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
