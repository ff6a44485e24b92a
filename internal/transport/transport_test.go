package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
)

func TestTCPWriteReadAcrossNodes(t *testing.T) {
	nodes, _, done := shardedMeshGroup(t, 3, 1)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nodes[0].Write(ctx, 42, proto.Value("over-tcp")); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		v, err := n.Read(ctx, 42)
		if err != nil || string(v) != "over-tcp" {
			t.Fatalf("node %d: %q %v", i, v, err)
		}
	}
}

func TestTCPManyWrites(t *testing.T) {
	nodes, _, done := shardedMeshGroup(t, 3, 1)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if err := nodes[i%3].Write(ctx, proto.Key(i%10), proto.Value{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for k := proto.Key(0); k < 10; k++ {
		ref, err := nodes[0].Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 3; i++ {
			v, err := nodes[i].Read(ctx, k)
			if err != nil || string(v) != string(ref) {
				t.Fatalf("node %d key %d: %q vs %q (%v)", i, k, v, ref, err)
			}
		}
	}
}

func TestTCPFAA(t *testing.T) {
	nodes, _, done := shardedMeshGroup(t, 3, 1)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	total := int64(0)
	for i := 0; i < 20; i++ {
		for {
			_, err := nodes[i%3].FAA(ctx, 7, 2)
			if err == nil {
				total += 2
				break
			}
			if err != cluster.ErrAborted {
				t.Fatal(err)
			}
		}
	}
	v, err := nodes[1].Read(ctx, 7)
	if err != nil || proto.DecodeInt64(v) != total {
		t.Fatalf("counter=%d want %d (%v)", proto.DecodeInt64(v), total, err)
	}
}

func TestMeshSurvivesUnreachablePeer(t *testing.T) {
	// A mesh with a bogus peer address: sends are dropped, not fatal.
	m, err := NewMesh(0, map[proto.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Send(0, 1, struct{}{}) // must not panic or block forever
}
