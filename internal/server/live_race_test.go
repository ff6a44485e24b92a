package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/transport"
)

// liveMeshGroup stands up n sharded replicas over loopback TCP — real wings
// frames, real pooled frame buffers, so INVs arrive at every follower
// owner-backed and the stores adopt wire memory.
func liveMeshGroup(t *testing.T, n, shards int) ([]*cluster.ShardedNode, func()) {
	t.Helper()
	// Reserve loopback ports first: NewMesh needs every peer's address up
	// front, and outside package transport the address map cannot be patched
	// after construction.
	addrs := make(map[proto.NodeID]string)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[proto.NodeID(i)] = ln.Addr().String()
	}
	members := make([]proto.NodeID, n)
	for i := range members {
		members[i] = proto.NodeID(i)
	}
	meshes := make([]*transport.Mesh, n)
	nodes := make([]*cluster.ShardedNode, n)
	for i := 0; i < n; i++ {
		lns[i].Close() // release the reserved port just before rebinding it
		m, err := transport.NewMesh(proto.NodeID(i), addrs)
		if err != nil {
			t.Fatalf("mesh %d: %v", i, err)
		}
		meshes[i] = m
		nodes[i] = cluster.NewShardedNode(cluster.ShardedConfig{
			ID: proto.NodeID(i), View: proto.View{Epoch: 1, Members: members},
			MLT: 50 * time.Millisecond, Shards: shards,
		}, m)
	}
	return nodes, func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, m := range meshes {
			m.Close()
		}
	}
}

// TestHotKeyRetainedReadsUnderWriteStorm is the server response-escape
// regression, end to end and under -race: node 1 storms writes to one hot
// key while 64 pipelined readers drain that key through node 0's wire server.
// It runs twice. With 32 B values node 0's store copies every INV value into
// the key's slot words and the read-into door copies them back out into the
// session's queue, so a torn response means a seqlock copy the word check
// let through. With 64 B values node 0's store continuously adopts and
// releases wire frame buffers, and the fast path pins the store buffer across
// the session flusher's batch encode, so a torn response means a buffer
// released early (recycled mid-encode). Every write fills the value with one
// repeated byte, and the race detector sees any unsynchronized reuse.
func TestHotKeyRetainedReadsUnderWriteStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP storm")
	}
	t.Run("32B-inline", func(t *testing.T) { hotKeyStorm(t, 32) })
	t.Run("64B-owned", func(t *testing.T) { hotKeyStorm(t, 64) })
}

func hotKeyStorm(t *testing.T, valLen int) {
	nodes, down := liveMeshGroup(t, 3, 2)
	defer down()
	srv := New(Config{Backend: nodes[0]})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const hot = proto.Key(99)
	seed := make(proto.Value, valLen)
	for i := range seed {
		seed[i] = 1
	}
	if err := nodes[1].Write(ctx, hot, seed); err != nil {
		t.Fatal(err)
	}

	var storming atomic.Bool
	storming.Store(true)

	// The readers dial first and the storm starts once all have: 400 writes
	// can finish in tens of milliseconds, less than 64 dials may take.
	const readers = 64
	var wg, dialed sync.WaitGroup
	start := make(chan struct{})
	var reads, torn atomic.Int64
	errs := make(chan error, readers)
	dialed.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(ln.Addr().String(), client.Config{})
			dialed.Done()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			<-start
			for storming.Load() {
				v, err := c.Read(hot)
				if err != nil {
					errs <- err
					return
				}
				if len(v) != valLen {
					torn.Add(1)
					continue
				}
				first := v[0]
				for _, b := range v {
					if b != first {
						torn.Add(1)
						break
					}
				}
				reads.Add(1)
			}
		}()
	}
	dialed.Wait()

	writerErr := make(chan error, 1)
	go func() {
		defer storming.Store(false)
		val := make(proto.Value, valLen)
		for i := 0; i < 400; i++ {
			fill := byte(i%250 + 1)
			for j := range val {
				val[j] = fill
			}
			if err := nodes[1].Write(ctx, hot, val); err != nil {
				writerErr <- err
				return
			}
		}
		writerErr <- nil
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn responses of %d reads: a response escaped its buffer's lifetime", n, reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("storm finished before any read completed")
	}

	// Post-storm the key settles Valid with its last value from a wire INV —
	// slot words, or owner-backed store memory. Reads now take the fast path:
	// copy or pin, coalesce, encode, release. During the storm the key is
	// Invalid at the follower almost continuously, so this is where the fast
	// path is provably exercised.
	c, err := client.Dial(ln.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	settle := time.After(10 * time.Second)
	for srv.Stats().FastReads == 0 {
		v, err := c.Read(hot)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != valLen {
			t.Fatalf("settled read length %d, want %d", len(v), valLen)
		}
		for _, b := range v {
			if b != v[0] {
				t.Fatalf("settled read torn: %x", v[:8])
			}
		}
		select {
		case <-settle:
			t.Fatal("no fast reads: the fast-read path was never exercised")
		default:
		}
	}
}
