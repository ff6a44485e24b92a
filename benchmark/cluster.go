package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/transport"
)

// testbed is the shape hermes-node deploys, in one process: three sharded
// replicas joined by TCP meshes on loopback, a wire server on nodes 0 and 1,
// and one client session to each.
type testbed struct {
	meshes  []*transport.Mesh
	nodes   []*cluster.ShardedNode
	servers []*server.Server
	clients []*client.Client
	tr      *tracer // nil unless the wrappers are installed
}

// reservePorts picks n free loopback ports by binding :0 and closing again.
// transport.NewMesh listens on addrs[self] itself, so the port has to be
// known before the mesh exists; a port can be taken in between, which
// newMeshes answers by retrying with fresh ones.
func reservePorts(n int) (map[proto.NodeID]string, error) {
	addrs := make(map[proto.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[proto.NodeID(i)] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, fmt.Errorf("release reserved port: %w", err)
		}
	}
	return addrs, nil
}

// newMeshes builds one mesh per replica, retrying on a lost port race.
func newMeshes(n int) ([]*transport.Mesh, error) {
	const attempts = 8
	var last error
	for try := 0; try < attempts; try++ {
		addrs, err := reservePorts(n)
		if err != nil {
			return nil, err
		}
		meshes := make([]*transport.Mesh, 0, n)
		for i := 0; i < n; i++ {
			m, err := transport.NewMesh(proto.NodeID(i), addrs)
			if err != nil {
				last = err
				break
			}
			meshes = append(meshes, m)
		}
		if len(meshes) == n {
			return meshes, nil
		}
		for _, m := range meshes {
			m.Close()
		}
		if !errors.Is(last, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, fmt.Errorf("mesh bring-up: %w", last)
}

// newReplicas stands up the replica group over TCP. With a tracer, every
// mesh is wrapped (see trace.go); without one the nodes sit directly on the
// meshes, as deployed.
func newReplicas(tr *tracer) (*testbed, error) {
	meshes, err := newMeshes(replicas)
	if err != nil {
		return nil, err
	}
	ids := make([]proto.NodeID, replicas)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	tb := &testbed{meshes: meshes, tr: tr}
	for i, m := range meshes {
		var t cluster.Transport = m
		if tr != nil {
			t = &tracedTransport{inner: m, tr: tr}
		}
		tb.nodes = append(tb.nodes, cluster.NewShardedNode(cluster.ShardedConfig{
			ID:     ids[i],
			View:   proto.View{Epoch: 1, Members: ids},
			MLT:    mlt,
			Shards: shards,
		}, t))
	}
	return tb, nil
}

// newTestbed brings the whole deployment up, preloads the keyspace over the
// wire and leaves both sessions dialled.
func newTestbed(w workloadSpec, tr *tracer) (*testbed, error) {
	tb, err := newReplicas(tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sessions; i++ {
		var be server.Backend = tb.nodes[i]
		if tr != nil {
			be = &tracedBackend{node: tb.nodes[i], tr: tr}
		}
		srv := server.New(server.Config{Backend: be})
		tb.servers = append(tb.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("client listener: %w", err)
		}
		go srv.Serve(ln) // returns ErrServerClosed from tb.close
		c, err := client.Dial(ln.Addr().String(), client.Config{})
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		tb.clients = append(tb.clients, c)
	}
	if err := tb.preload(w); err != nil {
		tb.close()
		return nil, err
	}
	return tb, nil
}

// close tears everything down and returns once every goroutine the testbed
// started has exited.
func (tb *testbed) close() {
	for _, c := range tb.clients {
		c.Close()
	}
	for _, s := range tb.servers {
		s.Close()
	}
	for _, n := range tb.nodes {
		n.Close()
	}
	for _, m := range tb.meshes {
		m.Close()
	}
}

// preload writes every key once over the wire, session i taking the keys
// congruent to i, so that timed reads land on Valid keys at every replica.
func (tb *testbed) preload(w workloadSpec) error {
	const depth = 128 // below the server's granted window of 256
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			val := make([]byte, w.ValueSize)
			putHeader(val, preloadSession, preloadSeq)
			tokens := make(chan struct{}, depth)
			done := func(r proto.ClientResp, err error) {
				if err != nil {
					fail(err)
				} else if r.Status != proto.OK {
					fail(fmt.Errorf("status %v", r.Status))
				}
				<-tokens
			}
			for k := uint64(s); k < w.Keys; k += sessions {
				tokens <- struct{}{}
				if err := tb.clients[s].Do(proto.OpWrite, proto.Key(k), val, nil, done); err != nil {
					fail(err)
					<-tokens
					break
				}
			}
			for i := 0; i < depth; i++ {
				tokens <- struct{}{} // every token back: every callback has run
			}
		}(s)
	}
	wg.Wait()
	if first != nil {
		return fmt.Errorf("preload: %w", first)
	}
	return tb.settle(w, 5*time.Second)
}

// settle waits until every key of the keyspace is Valid and holds a whole
// value at every replica: a write is acknowledged before its VALs reach the
// followers, and a key a follower has never heard of reads as Valid and
// empty.
func (tb *testbed) settle(w workloadSpec, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, n := range tb.nodes {
		for k := uint64(0); k < w.Keys; k++ {
			for {
				if v, ok := n.ReadLocal(proto.Key(k)); ok && len(v) == w.ValueSize {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("key %d not Valid with a %d-byte value at node %d after %v", k, w.ValueSize, n.ID(), limit)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	return nil
}
