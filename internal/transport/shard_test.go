package transport

import (
	"context"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wings"
)

// shardedMeshGroup stands up n live W-shard Hermes replicas over loopback
// TCP. Every replication message crosses the wire inside a ShardMsg
// envelope.
func shardedMeshGroup(t *testing.T, n, w int) ([]*cluster.ShardedNode, []*Mesh, func()) {
	t.Helper()
	addrs := make(map[proto.NodeID]string)
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		m, err := NewMesh(proto.NodeID(i), map[proto.NodeID]string{proto.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		addrs[proto.NodeID(i)] = m.Addr()
	}
	for _, m := range meshes {
		m.addrs = addrs
	}
	members := make([]proto.NodeID, n)
	for i := range members {
		members[i] = proto.NodeID(i)
	}
	view := proto.View{Epoch: 1, Members: members}
	nodes := make([]*cluster.ShardedNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = cluster.NewShardedNode(cluster.ShardedConfig{
			ID: proto.NodeID(i), View: view, MLT: 50 * time.Millisecond, Shards: w,
		}, meshes[i])
	}
	return nodes, meshes, func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, m := range meshes {
			m.Close()
		}
	}
}

func TestShardMsgOverTCP(t *testing.T) {
	const w = 4
	nodes, _, done := shardedMeshGroup(t, 3, w)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Touch every shard from every coordinator; converge everywhere.
	for i := 0; i < 4*w; i++ {
		k := proto.Key(i + 1)
		val := proto.Value(fmt.Sprintf("v%d", i))
		if err := nodes[i%3].Write(ctx, k, val); err != nil {
			t.Fatalf("write %d (shard %d): %v", i, proto.ShardOf(k, w), err)
		}
		for _, n := range nodes {
			got, err := n.Read(ctx, k)
			if err != nil || string(got) != string(val) {
				t.Fatalf("node %d key %d: %q %v", n.ID(), k, got, err)
			}
		}
	}
}

// TestShardMsgTCPConcurrentWriters drives enough shard-tagged traffic
// through the links to exercise batching, from concurrent writers on every
// node.
func TestShardMsgTCPConcurrentWriters(t *testing.T) {
	const w = 4
	nodes, _, done := shardedMeshGroup(t, 3, w)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for ni, n := range nodes {
		wg.Add(1)
		go func(ni int, n *cluster.ShardedNode) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				k := proto.Key(j%16 + 1)
				if err := n.Write(ctx, k, proto.Value(fmt.Sprintf("n%d-%d", ni, j))); err != nil {
					t.Errorf("node %d write %d: %v", ni, j, err)
					return
				}
			}
		}(ni, n)
	}
	wg.Wait()
	for k := proto.Key(1); k <= 16; k++ {
		ref, err := nodes[0].Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			v, err := n.Read(ctx, k)
			if err != nil || string(v) != string(ref) {
				t.Fatalf("divergence on key %d: node %d has %q, node 0 has %q (%v)",
					k, n.ID(), v, ref, err)
			}
		}
	}
}

// TestStrayFramesDoNotCrashNode: a replica port takes frames from anyone who
// sends a valid hello, so what arrives on it outside a shard envelope —
// client-session traffic, or engine messages no shard host sends — is dropped
// at routing instead of reaching an engine, which panics on a type it does
// not know. The node keeps committing and replicating afterwards.
func TestStrayFramesDoNotCrashNode(t *testing.T) {
	const w = 2
	nodes, meshes, done := shardedMeshGroup(t, 3, w)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	conn, err := net.Dial("tcp", meshes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1}); err != nil { // hello: "I am node 1"
		t.Fatal(err)
	}
	stray := wings.NewLink(conn, wings.LinkConfig{})
	defer stray.Close()
	// The probe is a well-formed tagged write to a key of shard 0, where every
	// keyless untagged frame used to land: once node 0 serves it, shard 0's
	// event loop has taken the strays posted before it.
	probe := keyOn(w, 0)
	ts := proto.TS{Version: 1, CID: 1}
	for _, msg := range []any{
		proto.ClientReq{Seq: 1, Op: proto.OpRead, Key: 3},
		proto.ClientResp{Seq: 1, Status: proto.OK},
		core.MCheck{Epoch: 1, Seq: 1},
		core.INV{Epoch: 1, Key: probe, TS: ts, Value: proto.Value("forged")},
		proto.ShardMsg{Shard: 0, Msg: core.INV{Epoch: 1, Key: probe, TS: ts, Value: proto.Value("probe")}},
		proto.ShardMsg{Shard: 0, Msg: core.VAL{Epoch: 1, Key: probe, TS: ts}},
	} {
		if err := stray.Post(msg); err != nil {
			t.Fatalf("post %T: %v", msg, err)
		}
	}
	for {
		if v, ok := nodes[0].ReadLocal(probe); ok && string(v) == "probe" {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("node 0 never served the probe")
		}
		time.Sleep(time.Millisecond)
	}

	const k = proto.Key(42)
	if err := nodes[0].Write(ctx, k, proto.Value("after")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if v, err := n.Read(ctx, k); err != nil || string(v) != "after" {
			t.Fatalf("node %d: %q %v", n.ID(), v, err)
		}
	}
}

// keyOn returns the smallest key shard owns on a w-shard node.
func keyOn(w int, shard uint16) proto.Key {
	for k := proto.Key(1); ; k++ {
		if proto.ShardOf(k, w) == shard {
			return k
		}
	}
}

// TestShardMsgTCPReconnect kills one replica's mesh mid-run and restarts it
// on the same address: the peers' links die, lazy redial plus the shard
// engines' retransmission finish subsequent writes.
func TestShardMsgTCPReconnect(t *testing.T) {
	const w = 2
	nodes, meshes, done := shardedMeshGroup(t, 2, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := nodes[0].Write(ctx, 1, proto.Value("before")); err != nil {
		done()
		t.Fatal(err)
	}

	// Crash-restart node 1's transport and engine on the same port.
	addr1 := meshes[1].Addr()
	nodes[1].Close()
	meshes[1].Close()
	addrs := map[proto.NodeID]string{0: meshes[0].Addr(), 1: addr1}
	var mesh1b *Mesh
	var err error
	for i := 0; i < 50; i++ { // the freed port can linger briefly
		mesh1b, err = NewMesh(1, addrs)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		done()
		t.Fatalf("rebind %s: %v", addr1, err)
	}
	view := proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}}
	node1b := cluster.NewShardedNode(cluster.ShardedConfig{
		ID: 1, View: view, MLT: 50 * time.Millisecond, Shards: w,
	}, mesh1b)
	defer func() {
		node1b.Close()
		mesh1b.Close()
		nodes[0].Close()
		meshes[0].Close()
	}()

	// Writes on both shards commit across the re-established links.
	for k := proto.Key(2); k <= 5; k++ {
		if err := nodes[0].Write(ctx, k, proto.Value("after")); err != nil {
			t.Fatalf("write key %d after reconnect: %v", k, err)
		}
		if v, err := node1b.Read(ctx, k); err != nil || string(v) != "after" {
			t.Fatalf("restarted node read key %d: %q %v", k, v, err)
		}
	}
}

// TestContendedRMWsKeepCompleting is the live form of unanswered requests:
// for 10 s, FAAs race on two keys from two coordinators, and every losing
// RMW INV is answered with an INV (core's FRMW-ACK path), not an ACK, so it
// draws no response. Ops must keep completing — committed or aborted — none
// taking longer than 3 s, floor of them in all. A send window repaid only by
// responses would leak one credit per such INV and, 1024 of them later, stop
// the cluster for good.
func TestContendedRMWsKeepCompleting(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10 s live load; runs without -short")
	}
	floor := int64(150_000)
	if raceEnabled() {
		floor = 30_000 // the detector slows every op about fivefold
	}
	const (
		perNode = 16
		run     = 10 * time.Second
		opLimit = 3 * time.Second
	)
	nodes, _, done := shardedMeshGroup(t, 3, 1)
	defer done()
	var completed, aborted atomic.Int64
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }
	start := time.Now()
	var wg sync.WaitGroup
	for _, n := range nodes[:2] {
		for g := 0; g < perNode; g++ {
			wg.Add(1)
			go func(key proto.Key) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), opLimit)
					_, err := n.FAA(ctx, key, 1)
					cancel()
					switch err {
					case nil:
					case cluster.ErrAborted:
						aborted.Add(1)
					default:
						t.Errorf("FAA on key %d, %v in, after %d completed ops: %v", key, time.Since(start).Round(time.Millisecond), completed.Load(), err)
						halt()
						return
					}
					completed.Add(1)
				}
			}(proto.Key(g % 2))
		}
	}
	select {
	case <-stop:
	case <-time.After(run):
		halt()
	}
	wg.Wait()
	t.Logf("%d RMWs (%d aborted) in %v", completed.Load(), aborted.Load(), time.Since(start).Round(time.Millisecond))
	if c := completed.Load(); c < floor {
		t.Errorf("%d RMWs completed, want at least %d", c, floor)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
