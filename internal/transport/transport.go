// Package transport provides the TCP mesh transport for real deployments
// (cmd/hermes-node): every node listens on its address and maintains one
// wings.Link per peer, with lazy dialing and reconnection.
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
// node. Send never blocks: it runs in engine turns, on the shard event loops
// and on this mesh's own readers, whose deliver callback runs arrivals' turns
// inline. Everything that can wait on a peer — the dial, the socket — waits
// on that peer's link flusher, behind the link's bounded queue.
type Mesh struct {
	self  proto.NodeID
	addrs map[proto.NodeID]string
	// dial opens the stream to a peer's address. A field so that tests can
	// make it hang.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	// The per-message path takes no lock: Send loads the peer's outbound link
	// (nil until the first Send, and again once its stream has died), the
	// serve pumps load deliver.
	links   [1 << 8]atomic.Pointer[wings.Link] // indexed by proto.NodeID
	deliver atomic.Pointer[func(from proto.NodeID, msg any)]

	// mu guards link creation, connection tracking and Close.
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
// 1-byte hello, then wings frames flow.
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
	// An inbound connection only carries traffic in: this link never writes.
	wings.NewLink(conn, wings.LinkConfig{}).Serve(conn, m.deliverFrom(from))
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

// outbound is the stream under one outbound link. The link's first Write
// opens it — on the link's flusher, so a slow or hanging dial holds up that
// peer's queue and nothing else — and the mesh forgets the link as soon as a
// Write fails, so that a later Send starts over with a fresh one.
type outbound struct {
	m    *Mesh
	to   proto.NodeID
	link *wings.Link
	conn net.Conn // the flusher's alone
}

func (o *outbound) Write(p []byte) (n int, err error) {
	if o.conn == nil {
		err = o.open()
	}
	if err == nil {
		n, err = o.conn.Write(p)
	}
	if err != nil {
		o.m.forget(o.to, o.link)
		if o.conn != nil {
			o.conn.Close() // ends the connection's pump too
		}
	}
	return n, err
}

// open dials the peer, says hello and starts a pump on the connection, which
// carries nothing back but notices when the peer goes away.
func (o *outbound) open() error {
	m := o.m
	conn, err := m.dial(m.ctx, m.addrs[o.to])
	if err != nil {
		return err // unreachable peer: what was queued is lost; the protocols retransmit
	}
	if _, err := conn.Write([]byte{byte(m.self)}); err != nil {
		conn.Close()
		return err
	}
	if !m.track(conn) {
		conn.Close()
		return net.ErrClosed
	}
	o.conn = conn
	go func() {
		defer m.untrack(conn)
		defer conn.Close()
		o.link.Serve(conn, m.deliverFrom(o.to))
		m.forget(o.to, o.link) // reconnect lazily on the next Send
	}()
	return nil
}

// connect returns the outbound link to a peer, creating it — undialled — on
// first contact; nil once the mesh is closed.
func (m *Mesh) connect(to proto.NodeID) *wings.Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	if l := m.links[to].Load(); l != nil {
		return l
	}
	o := &outbound{m: m, to: to}
	o.link = wings.NewLink(o, wings.LinkConfig{})
	m.links[to].Store(o.link)
	return o.link
}

// forget drops l as the outbound link to a peer, unless a newer one already
// took its place.
func (m *Mesh) forget(to proto.NodeID, l *wings.Link) {
	m.links[to].CompareAndSwap(l, nil)
}

// Send implements cluster.Transport and never blocks: msg is encoded into the
// peer's link, which ships it when the dial and the socket allow, and sheds
// past its bound (wings.Link.Post). Like Post it consumes msg's
// pooled-buffer value references on every path, including the drops.
func (m *Mesh) Send(from, to proto.NodeID, msg any) {
	l := m.links[to].Load()
	if l == nil {
		if l = m.connect(to); l == nil {
			core.ReleaseMsgOwners(msg)
			return
		}
	}
	_ = l.Post(msg) // best-effort: a dead or full link drops, and the protocols retransmit
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
		if l := m.links[i].Swap(nil); l != nil {
			l.Close()
		}
	}
	for _, c := range conns {
		c.Close() // unblocks Serve readers
	}
	err := m.ln.Close()
	m.wg.Wait()
	return err
}
