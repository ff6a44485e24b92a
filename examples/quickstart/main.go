// Quickstart: stand up a 3-replica Hermes group in one process, write at
// one replica, read it back — linearizably — at the others, and use an RMW.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/server"
)

func main() {
	// Three single-shard replicas over an in-process transport. For a real
	// deployment over TCP see cmd/hermes-node.
	group := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 1)
	defer group.Close()
	ctx := context.Background()

	// Writes are decentralized: any replica coordinates its own writes.
	if err := group.Nodes[0].Write(ctx, 1, proto.Value("hello hermes")); err != nil {
		log.Fatalf("write: %v", err)
	}

	// Reads are local at every replica and still linearizable: a committed
	// Hermes write has, by definition, reached all replicas.
	for _, n := range group.Nodes {
		v, err := n.Read(ctx, 1)
		if err != nil {
			log.Fatalf("read at %d: %v", n.ID(), err)
		}
		fmt.Printf("replica %d reads: %s\n", n.ID(), v)
	}

	// Single-key RMWs: fetch-and-add a counter from different replicas.
	for i, n := range group.Nodes {
		prior, err := n.FAA(ctx, 2, 10)
		if err != nil {
			log.Fatalf("faa: %v", err)
		}
		fmt.Printf("faa #%d at replica %d: prior=%d\n", i+1, n.ID(), prior)
	}
	v, _ := group.Nodes[0].Read(ctx, 2)
	fmt.Printf("counter: %d\n", proto.DecodeInt64(v))

	// Compare-and-swap.
	swapped, _, _ := group.Nodes[1].CAS(ctx, 1, proto.Value("hello hermes"), proto.Value("updated"))
	fmt.Printf("cas swapped: %v\n", swapped)

	// The wire: front a replica with the TCP serving layer and talk to it
	// with the pipelined client — the same stack `hermes-node -listen` and
	// `hermes-cli` run. Reads are still served lock-free, on the server's
	// session goroutine, without taking a shard's engine.
	srv := server.New(server.Config{Backend: group.Nodes[0]})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)

	c, err := client.Dial(ln.Addr().String(), client.Config{})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Write(3, proto.Value("over the wire")); err != nil {
		log.Fatalf("wire write: %v", err)
	}
	wv, err := c.Read(3)
	if err != nil {
		log.Fatalf("wire read: %v", err)
	}
	prior, err := c.FAA(2, 12)
	if err != nil {
		log.Fatalf("wire faa: %v", err)
	}
	fmt.Printf("wire read: %s (window %d); wire faa prior=%d\n", wv, c.Window(), prior)
}
