package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linear"
	"repro/internal/proto"
)

// keysOnDistinctShards returns one key per shard for a W-shard engine,
// indexed by shard.
func keysOnDistinctShards(w int) []proto.Key {
	keys := make([]proto.Key, w)
	filled := make([]bool, w)
	found := 0
	for k := proto.Key(1); found < w; k++ {
		s := proto.ShardOf(k, w)
		if !filled[s] {
			keys[s], filled[s] = k, true
			found++
		}
	}
	return keys
}

func TestShardedReadWriteAllShards(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	ctx := context.Background()

	for i, k := range keysOnDistinctShards(w) {
		val := proto.Value(fmt.Sprintf("shard-%d", i))
		if err := l.Nodes[0].Write(ctx, k, val); err != nil {
			t.Fatalf("write shard %d: %v", i, err)
		}
		for _, n := range l.Nodes {
			v, err := n.Read(ctx, k)
			if err != nil || string(v) != string(val) {
				t.Fatalf("node %d shard %d: %q %v", n.ID(), i, v, err)
			}
		}
	}
}

// TestShardedCrossShardIndependence stalls one shard's replication traffic
// entirely and shows that writes to every other shard still commit: the
// engines are independent event loops with no shared serialization point.
func TestShardedCrossShardIndependence(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 20 * time.Millisecond}, w)
	defer l.Close()
	keys := keysOnDistinctShards(w)
	stuck := proto.ShardOf(keys[0], w)

	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool {
		sm, ok := msg.(proto.ShardMsg)
		return ok && sm.Shard == stuck
	})

	// The stalled shard's write hangs (its INVs never arrive) ...
	stalled := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stalled <- l.Nodes[0].Write(ctx, keys[0], proto.Value("late"))
	}()

	// ... while every other shard commits promptly.
	for _, k := range keys[1:] {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := l.Nodes[0].Write(ctx, k, proto.Value("fast"))
		cancel()
		if err != nil {
			t.Fatalf("write to healthy shard %d blocked behind stalled shard: %v",
				proto.ShardOf(k, w), err)
		}
	}
	select {
	case err := <-stalled:
		t.Fatalf("stalled write completed while its shard was cut: %v", err)
	default:
	}

	// Healing the shard lets the retransmission machinery finish the write.
	l.Tr.SetDrop(nil)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled write after heal: %v", err)
	}
	ctx := context.Background()
	if v, err := l.Nodes[2].Read(ctx, keys[0]); err != nil || string(v) != "late" {
		t.Fatalf("healed shard read: %q %v", v, err)
	}
}

// TestShardedConcurrentLinearizable hammers writes, FAAs and reads across
// shards from every node concurrently and checks each key's history for
// linearizability (compositional, so per-key checks suffice — paper §2.2).
func TestShardedConcurrentLinearizable(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	keys := keysOnDistinctShards(w)

	h := linear.NewHistory()
	var mu sync.Mutex
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	var idSeq uint64
	nextID := func() uint64 { mu.Lock(); idSeq++; id := idSeq; mu.Unlock(); return id }

	ctx := context.Background()
	var wg sync.WaitGroup
	for ni, n := range l.Nodes {
		for _, k := range keys {
			wg.Add(1)
			go func(ni int, n *ShardedNode, k proto.Key) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					id := nextID()
					val := proto.Value(fmt.Sprintf("n%d-%d", ni, j))
					mu.Lock()
					h.Invoke(id, k, linear.KWrite, val, nil, now())
					mu.Unlock()
					if err := n.Write(ctx, k, val); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					mu.Lock()
					h.Return(id, linear.KWrite, nil, now())
					mu.Unlock()

					id = nextID()
					mu.Lock()
					h.Invoke(id, k, linear.KRead, nil, nil, now())
					mu.Unlock()
					v, err := n.Read(ctx, k)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					mu.Lock()
					h.Return(id, linear.KRead, v, now())
					mu.Unlock()
				}
			}(ni, n, k)
		}
	}
	wg.Wait()
	h.Close()
	if k, res, ok := h.CheckAll(); !ok {
		t.Fatalf("key %d not linearizable: %s", k, res.Info)
	}
}

// TestW1NodeSpeaksShardEnvelopes: a W=1 node — however it was built — speaks
// the one wire shape every shard host does. Each protocol message it puts on
// the transport is a ShardMsg or ShardBatch tagged shard 0; only the
// node-level control messages travel bare.
func TestW1NodeSpeaksShardEnvelopes(t *testing.T) {
	ids := []proto.NodeID{0, 1, 2}
	view := proto.View{Epoch: 1, Members: ids}
	tr := NewChanTransport(ids)
	defer tr.Close()

	var mu sync.Mutex
	var outside []any
	var enveloped int
	tr.SetDrop(func(from, to proto.NodeID, msg any) bool {
		mu.Lock()
		defer mu.Unlock()
		switch m := msg.(type) {
		case proto.ShardMsg:
			enveloped++
			if m.Shard != 0 {
				outside = append(outside, msg)
			}
		case proto.ShardBatch:
			enveloped++
			for _, sm := range m.Msgs {
				if sm.Shard != 0 {
					outside = append(outside, msg)
				}
			}
		case proto.MUpdate, proto.ViewLogReq, proto.ViewLogResp, proto.EpochGossip:
		default:
			outside = append(outside, msg)
		}
		return false
	})

	nodes := []*ShardedNode{
		NewShardedNode(ShardedConfig{ID: 0, View: view, Shards: 1}, tr),
		NewShardedNode(ShardedConfig{ID: 1, View: view, Shards: 1}, tr),
		NewShardedNode(ShardedConfig{ID: 2, View: view}, tr), // zero Shards = 1
	}
	for _, n := range nodes {
		defer n.Close()
		if n.Shards() != 1 {
			t.Fatalf("node %d has %d shards, want 1", n.ID(), n.Shards())
		}
	}

	ctx := context.Background()
	for i, n := range nodes {
		k, val := proto.Key(11+i), proto.Value(fmt.Sprintf("from-%d", i))
		if err := n.Write(ctx, k, val); err != nil {
			t.Fatal(err)
		}
		for _, r := range nodes {
			if v, err := r.Read(ctx, k); err != nil || string(v) != string(val) {
				t.Fatalf("node %d reading node %d's write: %q %v", r.ID(), n.ID(), v, err)
			}
		}
	}
	if _, err := nodes[1].FAA(ctx, 20, 4); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(outside) > 0 {
		t.Fatalf("a W=1 node put %d messages on the wire outside a shard-0 envelope, first %#v", len(outside), outside[0])
	}
	if enveloped == 0 {
		t.Fatal("no shard envelope crossed the transport")
	}
}

// TestStrayFramesDoNotCrashNode: what reaches a node outside a shard envelope
// — client-session traffic, or engine messages no shard host sends — is
// dropped at routing instead of reaching an engine, which panics on a type it
// does not know. The W=1 case over ChanTransport; transport's test of the
// same name covers W=2 over TCP.
func TestStrayFramesDoNotCrashNode(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	for _, msg := range []any{
		proto.ClientReq{Seq: 1, Op: proto.OpRead, Key: 3},
		proto.ClientResp{Seq: 1, Status: proto.OK},
		core.MCheck{Epoch: 1, Seq: 1},
		core.INV{Epoch: 1, Key: 3, TS: proto.TS{Version: 1, CID: 1}, Value: proto.Value("forged")},
	} {
		l.Tr.Send(1, 0, msg)
	}
	// The write's ACKs reach node 0's one shard through the same FIFO inbox,
	// behind the strays: it cannot commit before they were handled.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.Nodes[0].Write(ctx, 42, proto.Value("after")); err != nil {
		t.Fatal(err)
	}
	for _, n := range l.Nodes {
		if v, err := n.Read(ctx, 42); err != nil || string(v) != "after" {
			t.Fatalf("node %d: %q %v", n.ID(), v, err)
		}
	}
}

// TestShardedViewChangeFansOutToAllShards bumps the epoch on every node and
// verifies each shard keeps serving: a shard that missed the m-update would
// drop the new-epoch traffic and stall the write.
func TestShardedViewChangeFansOutToAllShards(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	v2 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	for _, n := range l.Nodes {
		n.InstallView(v2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, k := range keysOnDistinctShards(w) {
		if err := l.Nodes[i%3].Write(ctx, k, proto.Value("epoch2")); err != nil {
			t.Fatalf("shard %d after view change: %v", proto.ShardOf(k, w), err)
		}
		if vv, err := l.Nodes[(i+1)%3].Read(ctx, k); err != nil || string(vv) != "epoch2" {
			t.Fatalf("shard %d read after view change: %q %v", proto.ShardOf(k, w), vv, err)
		}
	}
}
