package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
)

// meshPair stands up meshes 0 and 1 knowing each other's address; b hands
// the keys of the INVs it receives to the returned channel.
func meshPair(t *testing.T) (a, b *Mesh, keys chan proto.Key) {
	t.Helper()
	var meshes [2]*Mesh
	addrs := map[proto.NodeID]string{}
	for i := range meshes {
		m, err := NewMesh(proto.NodeID(i), map[proto.NodeID]string{proto.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		meshes[i], addrs[proto.NodeID(i)] = m, m.Addr()
	}
	meshes[0].addrs, meshes[1].addrs = addrs, addrs
	keys = make(chan proto.Key, 1024)
	meshes[1].SetDeliver(1, func(from proto.NodeID, msg any) {
		if inv, ok := msg.(core.INV); ok {
			keys <- inv.Key
		}
	})
	return meshes[0], meshes[1], keys
}

func recvKey(t *testing.T, keys chan proto.Key) proto.Key {
	t.Helper()
	select {
	case k := <-keys:
		return k
	case <-time.After(10 * time.Second):
		t.Fatal("no INV arrived")
		return 0
	}
}

// TestQueuedWhileDiallingArrivesInOrder: the dial runs on the link's flusher,
// so Send returns while it is still in progress, and what was sent meanwhile
// waits in the link and arrives — all of it, in order — over the one
// connection the dial produces. Dropping it instead would cost every set-up a
// message-loss timeout.
func TestQueuedWhileDiallingArrivesInOrder(t *testing.T) {
	a, _, keys := meshPair(t)
	var dials atomic.Int32
	release := make(chan struct{})
	a.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		select {
		case <-release:
			return dialTCP(ctx, addr)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	const n = 100
	for k := proto.Key(0); k < n; k++ {
		a.Send(0, 1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}}) // returns: the dial is not the caller's
	}
	select {
	case k := <-keys:
		t.Fatalf("INV %d arrived before the dial completed", k)
	default:
	}
	close(release)
	for want := proto.Key(0); want < n; want++ {
		if got := recvKey(t, keys); got != want {
			t.Fatalf("INV %d arrived where %d was due", got, want)
		}
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("%d dials for one peer, want 1", d)
	}
}

// TestFailedDialRetriedByLaterSend: a dial that fails loses what was queued
// behind it (best-effort, as ever) and makes the mesh forget the link. Nothing
// redials on its own; the next Send starts over with a fresh link, whose
// flusher dials again.
func TestFailedDialRetriedByLaterSend(t *testing.T) {
	a, _, keys := meshPair(t)
	var dials atomic.Int32
	a.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return nil, errors.New("connection refused")
		}
		return dialTCP(ctx, addr)
	}
	a.Send(0, 1, core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}})
	first := a.links[1].Load()
	deadline := time.Now().Add(10 * time.Second)
	for a.links[1].Load() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the mesh kept a link whose dial failed")
		}
		time.Sleep(time.Millisecond)
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("%d dials after one Send, want 1", d)
	}
	a.Send(0, 1, core.INV{Epoch: 1, Key: 2, TS: proto.TS{Version: 1}})
	if got := recvKey(t, keys); got != 2 {
		t.Fatalf("INV %d arrived, want 2 (1 was lost with the failed dial)", got)
	}
	if second := a.links[1].Load(); second == nil || second == first {
		t.Fatal("the later Send did not get a fresh link")
	}
	if d := dials.Load(); d != 2 {
		t.Fatalf("%d dials, want 2", d)
	}
}

// sendCounter counts the Sends a node makes on its mesh.
type sendCounter struct {
	*Mesh
	sends atomic.Uint64
}

func (c *sendCounter) Send(from, to proto.NodeID, msg any) {
	c.sends.Add(1)
	c.Mesh.Send(from, to, msg)
}

// within fails the test unless fn returns inside the bound.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: not within 10s", what)
	}
}

// TestNoEventLoopBlocksOnAPeer: a node whose only peer has stopped
// cooperating — it accepts and never reads, so its TCP window is spent, the
// socket fills and the link sheds; or its address swallows the dial — keeps
// running its event loops: ops that need no peer complete, Tick keeps
// retransmitting, Close returns. At every W a shard's event loop calls
// Transport.Send itself, at the end of each burst, so a Send that waits for
// the socket or for the dial stalls that shard's whole engine.
func TestNoEventLoopBlocksOnAPeer(t *testing.T) {
	for _, w := range []int{1, 2} {
		for _, fault := range []string{"window spent", "dial hangs"} {
			t.Run(fmt.Sprintf("W=%d/%s", w, fault), func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				go func() { // the peer: accepts, then never reads
					for {
						conn, err := ln.Accept()
						if err != nil {
							return
						}
						defer conn.Close() // held open until the listener closes
					}
				}()
				m, err := NewMesh(0, map[proto.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				if fault == "dial hangs" {
					m.dial = func(ctx context.Context, addr string) (net.Conn, error) {
						<-ctx.Done()
						return nil, ctx.Err()
					}
				}
				tr := &sendCounter{Mesh: m}
				node := cluster.NewShardedNode(cluster.ShardedConfig{
					ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
					MLT: 5 * time.Millisecond, TickEvery: time.Millisecond, Shards: w,
				}, tr)
				defer node.Close()

				// Writes the peer will never ACK, their INVs (and each MLT
				// their retransmissions) large enough to fill the socket.
				const writes = 64
				value := make(proto.Value, 64<<10)
				within(t, "submitting the writes", func() {
					for k := proto.Key(0); k < writes; k++ {
						err := node.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: value}, func(proto.Completion) {})
						if err != nil {
							t.Error(err)
						}
					}
				})
				within(t, "the fault taking hold", func() {
					for {
						if l := m.links[1].Load(); l != nil {
							st := l.Stats()
							if (fault == "window spent" && st.Shed > 0) || (fault == "dial hangs" && st.FramesSent > 0) {
								return
							}
						}
						time.Sleep(time.Millisecond)
					}
				})

				// Reads of untouched keys go through the event loop
				// (SubmitAsync has no fast path) and need nothing from the peer.
				done := make(chan proto.Completion, 4*w)
				for k := proto.Key(1000); k < proto.Key(1000+4*w); k++ {
					if err := node.SubmitAsync(proto.ClientOp{Kind: proto.OpRead, Key: k}, func(c proto.Completion) { done <- c }); err != nil {
						t.Fatal(err)
					}
				}
				within(t, "event-loop reads on every shard", func() {
					for i := 0; i < cap(done); i++ {
						if c := <-done; c.Status != proto.OK {
							t.Errorf("read of key %d: %v", c.Key, c.Status)
						}
					}
				})
				sent := tr.sends.Load()
				within(t, "Tick-driven retransmissions", func() {
					for tr.sends.Load() < sent+uint64(writes) {
						time.Sleep(time.Millisecond)
					}
				})
				within(t, "Close", func() {
					node.Close()
					m.Close()
				})
			})
		}
	}
}

// TestUnansweredRequestsAllArrive: a peer that answers no request — each INV
// it gets is stale, or a losing RMW's — still receives everything sent to it.
// TCP's window and the link's byte bound are the mesh's flow control; a
// credit window repaid only by responses would let 1024 INVs through and hold
// the rest.
func TestUnansweredRequestsAllArrive(t *testing.T) {
	a, b, _ := meshPair(t)
	var got atomic.Int64
	b.SetDeliver(1, func(from proto.NodeID, msg any) {
		if _, ok := msg.(core.INV); ok {
			got.Add(1)
		}
		core.ReleaseMsgOwners(msg)
	})
	const n = 1100
	for k := proto.Key(0); k < n; k++ {
		a.Send(0, 1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
	}
	deadline := time.Now().Add(time.Second)
	for got.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d INVs arrived within 1s", got.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
