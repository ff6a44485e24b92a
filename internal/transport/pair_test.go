package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// keySet collects the INV keys a mesh receives.
type keySet struct {
	mu   sync.Mutex
	keys map[proto.Key]bool
}

func collectINVs(m *Mesh) *keySet {
	s := &keySet{keys: make(map[proto.Key]bool)}
	m.SetDeliver(m.self, func(from proto.NodeID, msg any) {
		if inv, ok := msg.(core.INV); ok {
			s.mu.Lock()
			s.keys[inv.Key] = true
			s.mu.Unlock()
		}
		core.ReleaseMsgOwners(msg)
	})
	return s
}

func (s *keySet) has(k proto.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[k]
}

func (s *keySet) empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys) == 0
}

// await fails the test unless every key in [lo, hi) arrives within 10 s.
func (s *keySet) await(t *testing.T, who string, lo, hi proto.Key) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for k := lo; k < hi; {
		if s.has(k) {
			k++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: INV %d of [%d, %d) never arrived", who, k, lo, hi)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveConns lists the connections m tracks.
func (m *Mesh) liveConns() []net.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	return conns
}

// writesOn reports the connection m's link to a peer writes on, if any.
func (m *Mesh) writesOn(to proto.NodeID) net.Conn {
	p := m.links[to].Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// onePair reports whether meshes a and b each track exactly one connection,
// the two ends of one TCP connection, and each one's link to the other
// writes on it.
func onePair(a, b *Mesh) bool {
	ca, cb := a.liveConns(), b.liveConns()
	if len(ca) != 1 || len(cb) != 1 {
		return false
	}
	if ca[0].LocalAddr().String() != cb[0].RemoteAddr().String() ||
		ca[0].RemoteAddr().String() != cb[0].LocalAddr().String() {
		return false
	}
	return a.writesOn(b.self) == ca[0] && b.writesOn(a.self) == cb[0]
}

// settlesToOnePair fails the test unless a and b come to share one
// connection and keep sharing only it for 50 ms.
func settlesToOnePair(t *testing.T, a, b *Mesh) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var since time.Time
	for {
		switch {
		case !onePair(a, b):
			since = time.Time{}
		case since.IsZero():
			since = time.Now()
		case time.Since(since) > 50*time.Millisecond:
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no single connection: mesh %d tracks %d, mesh %d tracks %d",
				a.self, len(a.liveConns()), b.self, len(b.liveConns()))
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedDial holds a mesh's dials until release is closed; pending counts the
// dials not yet returned. hold, if set, wraps the dialed connection so that
// its holdAt-th Write (the hello is the first) calls hold before it writes.
type gatedDial struct {
	release chan struct{}
	hold    func()
	holdAt  int32
	pending atomic.Int32
}

func gate(m *Mesh) *gatedDial {
	g := &gatedDial{release: make(chan struct{})}
	m.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		g.pending.Add(1)
		defer g.pending.Add(-1)
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c, err := dialTCP(ctx, addr)
		if err != nil || g.hold == nil {
			return c, err
		}
		return &heldConn{Conn: c, hold: g.hold, at: g.holdAt}, nil
	}
	return g
}

// heldConn is a connection whose at-th Write calls hold first.
type heldConn struct {
	net.Conn
	hold   func()
	at     int32
	writes atomic.Int32
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == c.at {
		c.hold()
	}
	return c.Conn.Write(p)
}

// await fails the test unless cond holds within 10 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("not within 10s: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDialRaceSettlesOnOneConnection: both meshes Send first, so both dial.
// However the dials and hellos interleave, every message either side sent —
// before its dial returned, or while the pair was switching connections —
// arrives, and the pair ends up on the lower ID's dialed connection, which
// carries both directions: no idle connection is left by the other dial.
func TestDialRaceSettlesOnOneConnection(t *testing.T) {
	orders := []string{"together", "lower first", "higher first", "higher first, adopted mid-write", "both up before either accepts"}
	for _, order := range orders {
		t.Run(order, func(t *testing.T) {
			a, b, _ := meshPair(t)
			atA, atB := collectINVs(a), collectINVs(b)
			ga, gb := gate(a), gate(b)
			switch order {
			case "both up before either accepts":
				// Each side's hello waits for the other side's dial to have
				// returned, so both links hold their own dialed connection
				// before either hello is read.
				var both sync.WaitGroup
				both.Add(2)
				meet := func() {
					both.Done()
					both.Wait()
				}
				ga.hold, gb.hold = sync.OnceFunc(meet), sync.OnceFunc(meet)
				ga.holdAt, gb.holdAt = 1, 1
			case "higher first, adopted mid-write":
				// b's first frame on its own connection is in Write when b
				// adopts a's: the connection b leaves must stay open until
				// that write has returned, or the frame is lost.
				gb.hold = func() {
					deadline := time.Now().Add(10 * time.Second)
					for _, own := b.writesOn(0).(*heldConn); own; _, own = b.writesOn(0).(*heldConn) {
						if time.Now().After(deadline) {
							t.Error("mesh 1 never adopted mesh 0's connection")
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				gb.holdAt = 2
			}
			const n = 50
			for k := proto.Key(0); k < n; k++ {
				a.Send(0, 1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
				b.Send(1, 0, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			}
			bWrites := func() bool { return b.writesOn(0) != nil }
			switch order {
			case "lower first":
				close(ga.release)
				await(t, "mesh 1 adopting mesh 0's connection while its own dial is held", bWrites)
				close(gb.release)
			case "higher first", "higher first, adopted mid-write":
				close(gb.release)
				await(t, "mesh 1 writing on its own connection", bWrites)
				await(t, "mesh 0 reading mesh 1's connection", func() bool { return len(a.liveConns()) == 1 })
				close(ga.release)
			default:
				close(ga.release)
				close(gb.release)
			}
			for k := proto.Key(n); k < 2*n; k++ {
				a.Send(0, 1, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
				b.Send(1, 0, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
			}
			atB.await(t, "mesh 1", 0, 2*n)
			atA.await(t, "mesh 0", 0, 2*n)
			await(t, "every dial returning", func() bool { return ga.pending.Load() == 0 && gb.pending.Load() == 0 })
			settlesToOnePair(t, a, b)
			if got := a.writesOn(1).RemoteAddr().String(); got != b.Addr() {
				t.Fatalf("the pair settled on a connection from %s to mesh 0, not on mesh 0's dial", got)
			}
			// The connection left carries both directions.
			a.Send(0, 1, core.INV{Epoch: 1, Key: 2 * n, TS: proto.TS{Version: 1}})
			b.Send(1, 0, core.INV{Epoch: 1, Key: 2 * n, TS: proto.TS{Version: 1}})
			atB.await(t, "mesh 1", 2*n, 2*n+1)
			atA.await(t, "mesh 0", 2*n, 2*n+1)
			settlesToOnePair(t, a, b)
		})
	}
}

// TestPairReformsAfterRestart: when a peer restarts on the same address, the
// survivor's link to it dies with the old connection, and one connection
// carries the pair again, whichever side sends first.
func TestPairReformsAfterRestart(t *testing.T) {
	for _, restarted := range []proto.NodeID{0, 1} {
		t.Run(fmt.Sprintf("node %d restarts", restarted), func(t *testing.T) {
			a, b, _ := meshPair(t)
			meshes := [2]*Mesh{a, b}
			sets := [2]*keySet{collectINVs(a), collectINVs(b)}
			a.Send(0, 1, core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}})
			sets[1].await(t, "mesh 1", 1, 2)
			b.Send(1, 0, core.INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}})
			sets[0].await(t, "mesh 0", 1, 2)
			settlesToOnePair(t, a, b)

			old := meshes[restarted]
			old.Close()
			// The survivor's link ends with its connection, before any Send
			// could find the connection dead: the next one redials.
			survivor := 1 - restarted
			await(t, "the survivor's connection ending", func() bool { return len(meshes[survivor].liveConns()) == 0 })
			if meshes[survivor].links[restarted].Load() != nil {
				t.Fatal("the survivor kept the link whose connection ended")
			}
			var fresh *Mesh
			var err error
			for i := 0; i < 50; i++ { // the freed port can linger briefly
				if fresh, err = NewMesh(restarted, old.addrs); err == nil {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			if err != nil {
				t.Fatalf("rebind %s: %v", old.Addr(), err)
			}
			t.Cleanup(func() { fresh.Close() })
			meshes[restarted] = fresh
			sets[restarted], sets[survivor] = collectINVs(fresh), collectINVs(meshes[survivor])

			// The restarted side sends first; the survivor's first Sends may
			// still go down the old connection, so both keep sending, as
			// Hermes retransmits, until a message gets through each way.
			deadline := time.Now().Add(10 * time.Second)
			for k := proto.Key(2); sets[survivor].empty() || sets[restarted].empty(); k++ {
				if time.Now().After(deadline) {
					t.Fatal("no traffic got through after the restart")
				}
				fresh.Send(restarted, survivor, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
				meshes[survivor].Send(survivor, restarted, core.INV{Epoch: 1, Key: k, TS: proto.TS{Version: 1}})
				time.Sleep(5 * time.Millisecond)
			}
			settlesToOnePair(t, meshes[0], meshes[1])
		})
	}
}
