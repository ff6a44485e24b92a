package server

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/wings"
)

// countingNode serves through a node's held path and counts the ops it
// submits held and the completions they reach.
type countingNode struct {
	*cluster.ShardedNode
	held, completed atomic.Int64
}

func (c *countingNode) SubmitHeld(op proto.ClientOp, fn func(proto.Completion)) error {
	c.held.Add(1)
	return c.ShardedNode.SubmitHeld(op, func(comp proto.Completion) {
		c.completed.Add(1)
		fn(comp)
	})
}

// heldFrame is one request frame of n writes, alternating between keys of
// shard 0 and shard 1 of a 2-shard node, followed by extra.
func heldFrame(t *testing.T, n int, extra ...any) []byte {
	t.Helper()
	var msgs []any
	k := [2]proto.Key{}
	for i := 0; i < n; i++ {
		shard := uint16(i % 2)
		for proto.ShardOf(k[shard], 2) != shard {
			k[shard]++
		}
		msgs = append(msgs, proto.ClientReq{Seq: uint64(i + 1), Op: proto.OpWrite, Key: k[shard], Value: []byte("v")})
		k[shard]++
	}
	frame, err := wings.AppendFrame(nil, append(msgs, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestHeldFrameWritesBothShards: one request frame of writes to both shards
// of a live node goes through the held path — every op submitted held, run
// at the frame's end — and every write is answered OK.
func TestHeldFrameWritesBothShards(t *testing.T) {
	const writes = 64
	l := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 2)
	defer l.Close()
	node := &countingNode{ShardedNode: l.Nodes[0]}
	addr, srv := serve(t, Config{Backend: node})
	defer srv.Close()
	conn, _ := rawSession(t, addr)
	defer conn.Close()
	if _, err := conn.Write(heldFrame(t, writes)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resps := make(chan proto.ClientResp, writes)
	served := make(chan error, 1)
	go func() {
		served <- (&wings.Link{}).ServeClientResps(conn, func(r *proto.ClientResp) { resps <- *r })
	}()
	seen := map[uint64]bool{}
	for len(seen) < writes {
		select {
		case r := <-resps:
			if r.Status != proto.OK {
				t.Fatalf("write %d: status %v", r.Seq, r.Status)
			}
			seen[r.Seq] = true
		case err := <-served:
			t.Fatalf("%d of %d writes answered: %v", len(seen), writes, err)
		}
	}
	if n := node.held.Load(); n != writes {
		t.Fatalf("%d ops submitted held, want %d", n, writes)
	}
}

// TestHeldFrameErrorRunsQueued: a frame whose last entry is a protocol
// violation kills the session, but the writes queued from the frame's
// requests before it still run — the frame's end runs them on the error path
// too — and reach their completions.
func TestHeldFrameErrorRunsQueued(t *testing.T) {
	const writes = 16
	l := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 2)
	defer l.Close()
	node := &countingNode{ShardedNode: l.Nodes[0]}
	addr, srv := serve(t, Config{Backend: node})
	defer srv.Close()
	conn, _ := rawSession(t, addr)
	defer conn.Close()
	if _, err := conn.Write(heldFrame(t, writes, proto.ClientResp{Seq: 1, Status: proto.OK})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("session not ended by the violation: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for node.completed.Load() != writes {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d queued writes completed (%d submitted held)", node.completed.Load(), writes, node.held.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
