// Package transport provides the TCP mesh transport for real deployments
// (cmd/hermes-node): every node listens on its address and keeps one
// wings.Link per peer, with lazy dialing and reconnection. Each pair of
// replicas shares one TCP connection that carries both directions, so the
// kernel's acknowledgement of an INV rides the frame that carries the ACK
// back, instead of leaving as a segment of its own.
//
// The lower ID's dialed connection carries the pair. The higher ID adopts
// it as its own link's writer when it arrives, and closes the connection it
// dialed itself, if it sent first, once that one's in-flight write has
// returned (Mesh.adopt).
//
// The mesh authenticates no one. The 1-byte hello that names the peer is
// trusted for adoption exactly as it already is for delivery: whoever says
// hello as a replica with a lower ID than this node's takes over the writer
// of this node's link to that replica, until its connection ends and the
// next Send redials.
//
// The links run without a credit window (wings.LinkConfig{}). The paper's
// Wings layer (§4.2) needs one over RDMA; over TCP three bounds already hold
// both ends: the kernel's window, each link's byte bound past which Post
// sheds (with Hermes' retransmission behind it), and each shard's bounded
// inbox. A window repaid by responses would also leak a credit on every
// request that draws none — a stale-epoch INV, a losing RMW's INV — and stop
// a healthy connection once the window is gone.
package transport

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wings"
)

// Mesh is a TCP transport implementing cluster.Transport for one local
// node. Send never blocks: it runs in engine turns, on whichever goroutine
// runs them — this mesh's own readers among them, whose deliver callback runs
// arrivals' turns inline. Everything that can wait on a peer — the dial, the socket — waits
// on that peer's link flusher, behind the link's bounded queue. A peer's
// link sends and receives on the one connection the pair shares.
type Mesh struct {
	self  proto.NodeID
	addrs map[proto.NodeID]string
	// dial opens the stream to a peer's address. A field so that tests can
	// make it hang.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	// The per-message path takes no lock: Send loads the peer's link (nil
	// until the first Send or accepted connection, and again once its
	// connection has died), the serve pumps load deliver.
	links   [1 << 8]atomic.Pointer[peerLink] // indexed by proto.NodeID
	deliver atomic.Pointer[func(from proto.NodeID, msg any)]

	// mu guards link creation, adoption and forgetting, connection tracking
	// and Close. It is taken before a peerLink's mu, never after.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// ctx ends with the mesh, taking dials still in flight with it.
	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener
	wg     sync.WaitGroup
}

// NewMesh starts a mesh node listening on addrs[self].
func NewMesh(self proto.NodeID, addrs map[proto.NodeID]string) (*Mesh, error) {
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		self:  self,
		addrs: addrs,
		dial:  dialTCP,
		conns: make(map[net.Conn]struct{}),
		ln:    ln,
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(1)
	go m.accept()
	return m, nil
}

func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 2 * time.Second}
	return d.DialContext(ctx, "tcp", addr)
}

// Addr returns the listener's address (useful with ":0").
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

func (m *Mesh) accept() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.serveConn(conn)
	}
}

// track registers a connection, and the goroutine serving it, for teardown on
// Close; returns false if the mesh is already closed. The goroutine calls
// untrack on its way out.
func (m *Mesh) track(conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[conn] = struct{}{}
	m.wg.Add(1)
	return true
}

func (m *Mesh) untrack(conn net.Conn) {
	m.mu.Lock()
	delete(m.conns, conn)
	m.mu.Unlock()
	m.wg.Done()
}

// serveConn handles an inbound connection: the peer announces its ID in a
// 1-byte hello, then wings frames flow. A lower ID's connection becomes its
// link's writer too (adopt).
func (m *Mesh) serveConn(conn net.Conn) {
	defer conn.Close()
	if !m.track(conn) {
		return
	}
	defer m.untrack(conn)
	var hello [1]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(hello[:]); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	from := proto.NodeID(hello[0])
	if from < m.self {
		if p := m.adopt(from, conn); p != nil {
			p.serve(conn)
		}
		return
	}
	// A higher ID's connection only reads: this node's own dialed connection
	// carries the pair, and the peer closes this one once that has arrived.
	wings.NewLink(conn, wings.LinkConfig{}).Serve(conn, m.deliverFrom(from))
}

// adopt makes conn, accepted from a lower ID, the writer of the link for
// that peer, and returns that link, which reads conn too; nil once the mesh
// is closed. A peer with no link gets one that writes on conn, without a
// dial. Otherwise the link's writer switches to conn and the queued
// messages move with it: the connection it leaves — this node's own dial,
// if it sent first, or the one the peer dialed before it lost its link — is
// closed, by the flusher once its in-flight write has returned; a dial
// still in flight is closed when it returns (open).
func (m *Mesh) adopt(from proto.NodeID, conn net.Conn) *peerLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	p := m.links[from].Load()
	if p == nil {
		p = m.newLink(from)
		p.conn = conn
		m.links[from].Store(p)
		return p
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev := p.conn; prev != nil {
		if p.writing {
			p.retired = append(p.retired, prev) // the flusher closes it after its write
		} else {
			prev.Close()
		}
	}
	p.conn = conn
	return p
}

// deliverFrom is a serve pump's callback for traffic arriving from one peer.
func (m *Mesh) deliverFrom(from proto.NodeID) func(msg any) {
	return func(msg any) {
		if fn := m.deliver.Load(); fn != nil {
			(*fn)(from, msg)
		} else {
			// No consumer registered yet: the drop must spend the frame
			// references decode retained for the message's values.
			core.ReleaseMsgOwners(msg)
		}
	}
}

// peerLink is the link to one peer and the connection under it. The link's
// first Write dials the peer — on the link's flusher, so a slow or hanging
// dial holds up that peer's queue and nothing else — unless a lower ID's
// connection has been adopted first. The mesh forgets the link, and closes
// it, as soon as a Write fails or the connection it writes on ends, so that
// a later Send starts over with a fresh one.
type peerLink struct {
	*wings.Link
	m  *Mesh
	to proto.NodeID

	mu sync.Mutex
	// conn carries the link's frames: the dialed connection, or one accepted
	// from the peer; nil until the first of them is up.
	conn net.Conn
	// writing is set while the flusher is in Write. A connection adopt
	// switches away from meanwhile waits in retired, and the flusher closes
	// it once its write has returned.
	writing bool
	retired []net.Conn
}

// newLink makes the link to a peer, with no connection under it yet.
func (m *Mesh) newLink(to proto.NodeID) *peerLink {
	p := &peerLink{m: m, to: to}
	p.Link = wings.NewLink(p, wings.LinkConfig{})
	return p
}

// Write is the link's writer: it ships b on the connection that carries the
// pair, dialing it first if there is none.
func (p *peerLink) Write(b []byte) (n int, err error) {
	p.mu.Lock()
	p.writing = true
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		conn, err = p.open()
	}
	if err == nil {
		n, err = conn.Write(b)
	}
	p.mu.Lock()
	p.writing = false
	retired := p.retired
	p.retired = nil
	p.mu.Unlock()
	for _, c := range retired {
		c.Close()
	}
	if err != nil {
		p.end(conn, true)
	}
	return n, err
}

// open dials the peer for the link's first Write, says hello and starts a
// pump on the connection, which reads what the peer sends back on it. If the
// lower peer's connection was adopted while the dial was out, that one
// carries the pair, and the dialed one is closed.
func (p *peerLink) open() (net.Conn, error) {
	m := p.m
	conn, err := m.dial(m.ctx, m.addrs[p.to])
	if err == nil {
		if _, err = conn.Write([]byte{byte(m.self)}); err == nil && !m.track(conn) {
			err = net.ErrClosed
		}
		if err != nil {
			conn.Close()
			conn = nil
		}
	}
	p.mu.Lock()
	adopted := p.conn
	if adopted == nil {
		p.conn = conn
	}
	p.mu.Unlock()
	if adopted != nil {
		if conn != nil {
			conn.Close()
			m.untrack(conn)
		}
		return adopted, nil
	}
	if err != nil {
		return nil, err // unreachable peer: what was queued is lost; the protocols retransmit
	}
	go func() {
		defer m.untrack(conn)
		defer conn.Close()
		p.serve(conn)
	}()
	return conn, nil
}

// serve pumps conn's frames to the mesh's deliver callback until the stream
// ends. If conn still carries the link's frames then, the link is done; a
// connection the link has left, or only ever read, ends quietly.
func (p *peerLink) serve(conn net.Conn) {
	p.Serve(conn, p.m.deliverFrom(p.to))
	p.end(conn, false)
}

// end ends the link when conn is the connection it writes on, or whenever a
// Write on conn failed (conn is nil when the dial did): the mesh forgets the
// link, so that the next Send starts over with a fresh one, and the link and
// its connections are closed, which ends their pumps, and the peer's link
// on its side with them.
func (p *peerLink) end(conn net.Conn, failed bool) {
	m := p.m
	m.mu.Lock()
	p.mu.Lock()
	cur := p.conn
	p.mu.Unlock()
	done := failed || cur == conn
	if done {
		m.links[p.to].CompareAndSwap(p, nil)
	}
	m.mu.Unlock()
	if !done {
		return
	}
	p.Close()
	for _, c := range []net.Conn{conn, cur} {
		if c != nil {
			c.Close()
		}
	}
}

// connect returns the link to a peer, creating it — undialled — on first
// contact; nil once the mesh is closed.
func (m *Mesh) connect(to proto.NodeID) *peerLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	if p := m.links[to].Load(); p != nil {
		return p
	}
	p := m.newLink(to)
	m.links[to].Store(p)
	return p
}

// Send implements cluster.Transport and never blocks: msg is encoded into the
// peer's link, which ships it when the dial and the socket allow, and sheds
// past its bound (wings.Link.Post). Like Post it consumes msg's
// pooled-buffer value references on every path, including the drops.
func (m *Mesh) Send(from, to proto.NodeID, msg any) {
	p := m.links[to].Load()
	if p == nil {
		if p = m.connect(to); p == nil {
			core.ReleaseMsgOwners(msg)
			return
		}
	}
	_ = p.Post(msg) // best-effort: a dead or full link drops, and the protocols retransmit
}

// SetDeliver implements cluster.Transport.
func (m *Mesh) SetDeliver(id proto.NodeID, fn func(from proto.NodeID, msg any)) {
	m.deliver.Store(&fn)
}

// Close implements cluster.Transport.
func (m *Mesh) Close() error {
	m.mu.Lock()
	m.closed = true
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	m.cancel()
	for i := range m.links {
		if p := m.links[i].Swap(nil); p != nil {
			p.Close()
		}
	}
	for _, c := range conns {
		c.Close() // unblocks Serve readers
	}
	err := m.ln.Close()
	m.wg.Wait()
	return err
}
