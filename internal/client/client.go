// Package client is the pipelined wire client for the serving layer
// (internal/server): one TCP connection carrying many in-flight requests,
// correlated by sequence number, flow-controlled by the window the server
// grants at handshake. The blocking API (Read/Write/CAS/FAA) mirrors
// cluster.ShardedNode's so code written against an in-process node ports to the
// wire unchanged; the callback API (Do) is what the benchmark's thousands of
// sessions use to keep the pipeline full without a goroutine per request.
//
// Flow control reuses the wings link credit discipline: each request costs
// one send credit and each response repays one (a frame's worth at a time), so
// a send past the window blocks the caller — the client-side half of the
// server's admission contract, which guarantees a compliant client is never
// killed for overrunning its window.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/wings"
)

// ErrAborted reports an RMW that lost to a concurrent conflicting update
// (paper §3.6); the op had no effect and may be retried.
var ErrAborted = errors.New("client: rmw aborted by concurrent update")

// ErrNotOperational reports a replica without a valid membership lease (or
// one shutting down); retry against a current member.
var ErrNotOperational = errors.New("client: replica not operational")

// ErrClosed reports an operation on a closed client, or one whose
// connection died mid-flight (the op's fate is unknown; reads and
// idempotent retries are safe).
var ErrClosed = errors.New("client: connection closed")

// Config tunes Dial.
type Config struct {
	// DialTimeout bounds the TCP connect + handshake (default 5s).
	DialTimeout time.Duration
}

// Client is one pipelined session. Safe for concurrent use by any number of
// goroutines; requests interleave on the single connection.
type Client struct {
	addr   string
	cfg    Config
	window int

	mu   sync.Mutex
	conn net.Conn
	link *wings.Link
	// pending maps an in-flight request's seq to its callback.
	pending map[uint64]func(proto.ClientResp, error)
	nextSeq uint64
	closed  bool
	wg      sync.WaitGroup
}

// Dial connects and performs the session handshake, returning a live client.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, cfg: cfg, pending: make(map[uint64]func(proto.ClientResp, error))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials, handshakes, and starts the read pump. Caller must not hold
// c.mu for the whole duration — it is only taken to publish the new conn.
// Concurrent callers (Dos that all found the session dead) each dial, and the
// first to publish wins: the others close theirs and use the winner's, so the
// client never owns a connection Close cannot reach.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if _, err := conn.Write(wings.ClientMagic[:]); err != nil {
		conn.Close()
		return err
	}
	var reply [8]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return err
	}
	if [4]byte(reply[:4]) != wings.ClientMagic {
		conn.Close()
		return fmt.Errorf("client: bad handshake from %s", c.addr)
	}
	window := int(uint32(reply[4]) | uint32(reply[5])<<8 | uint32(reply[6])<<16 | uint32(reply[7])<<24)
	if window <= 0 || window > 1<<20 {
		conn.Close()
		return fmt.Errorf("client: server granted absurd window %d", window)
	}
	conn.SetDeadline(time.Time{})

	c.mu.Lock()
	if c.closed || c.conn != nil {
		closed := c.closed
		c.mu.Unlock()
		conn.Close()
		if closed {
			return ErrClosed
		}
		return nil
	}
	link := wings.NewLink(conn, wings.LinkConfig{Credits: window})
	c.conn = conn
	c.link = link
	c.window = window
	c.wg.Add(1)
	c.mu.Unlock()

	go c.pump(conn, link)
	return nil
}

// pump reads responses and hands them to their callbacks; on any stream error
// it fails every in-flight request (their fate is unknown) and leaves the
// client disconnected — the next request lazily reconnects.
func (c *Client) pump(conn net.Conn, link *wings.Link) {
	defer c.wg.Done()
	// Anything but a response (or a credit grant) on the stream ends it here,
	// like any other stream error.
	link.ServeClientResps(conn, func(resp *proto.ClientResp) {
		c.mu.Lock()
		fn := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if fn != nil {
			fn(*resp, nil)
		}
	})
	conn.Close()
	link.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		c.link = nil
	}
	stranded := c.pending
	c.pending = make(map[uint64]func(proto.ClientResp, error))
	c.mu.Unlock()
	for _, fn := range stranded {
		fn(proto.ClientResp{}, ErrClosed)
	}
}

// Window reports the pipelining window the server granted.
func (c *Client) Window() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window
}

// Close tears the session down; in-flight requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
	return nil
}

// Do issues one request and invokes fn with the response (or error) from the
// read-pump goroutine; fn must not block. This is the pipelined path: a
// single goroutine can keep the whole window in flight. It lazily reconnects
// a dead session first, and blocks when the window is exhausted (the link's
// credit discipline). fn runs exactly once if Do returns nil and never if it
// returns an error.
func (c *Client) Do(op proto.OpKind, key proto.Key, val, exp proto.Value, fn func(proto.ClientResp, error)) error {
	if fn == nil {
		panic("client: nil callback")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.conn == nil {
		c.mu.Unlock()
		if err := c.connect(); err != nil {
			return err
		}
		c.mu.Lock()
		if c.closed || c.conn == nil {
			c.mu.Unlock()
			return ErrClosed
		}
	}
	c.nextSeq++
	seq := c.nextSeq
	link := c.link
	c.pending[seq] = fn
	c.mu.Unlock()

	// On this stack: the typed door encodes req before it returns.
	req := proto.ClientReq{Seq: seq, Op: op, Key: key, Value: val, Expected: exp}
	if err := link.SendClientReq(&req); err != nil {
		// The request never shipped; the pump's strand sweep may already have
		// taken the callback, in which case it has run with ErrClosed.
		c.mu.Lock()
		_, still := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if !still {
			return nil
		}
		return ErrClosed
	}
	return nil
}

// callSink is where a blocking call waits: a Do callback that hands the
// outcome to the calling goroutine. callSinks recycles them, callback bound
// once. fn runs on the read pump and must not block: ch has room for one
// outcome, fn runs once per accepted Do, and call always receives it before
// the sink goes back.
type callSink struct {
	ch chan callResult
	fn func(proto.ClientResp, error)
}

type callResult struct {
	resp proto.ClientResp
	err  error
}

var callSinks = sync.Pool{
	New: func() any {
		ch := make(chan callResult, 1)
		return &callSink{ch: ch, fn: func(resp proto.ClientResp, err error) { ch <- callResult{resp, err} }}
	},
}

// call is the blocking request path shared by Read/Write/CAS/FAA.
func (c *Client) call(op proto.OpKind, key proto.Key, val, exp proto.Value) (proto.ClientResp, error) {
	sink := callSinks.Get().(*callSink)
	defer callSinks.Put(sink)
	if err := c.Do(op, key, val, exp, sink.fn); err != nil {
		return proto.ClientResp{}, err
	}
	r := <-sink.ch
	return r.resp, r.err
}

// Read performs a linearizable read.
func (c *Client) Read(key proto.Key) (proto.Value, error) {
	resp, err := c.call(proto.OpRead, key, nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.Status != proto.OK {
		return nil, statusErr(resp.Status)
	}
	return resp.Value, nil
}

// Write performs a linearizable write.
func (c *Client) Write(key proto.Key, val proto.Value) error {
	resp, err := c.call(proto.OpWrite, key, val, nil)
	if err != nil {
		return err
	}
	if resp.Status != proto.OK {
		return statusErr(resp.Status)
	}
	return nil
}

// CAS performs a compare-and-swap; swapped=false with err==nil means the
// comparand mismatched and observed holds the current value.
func (c *Client) CAS(key proto.Key, expect, val proto.Value) (swapped bool, observed proto.Value, err error) {
	resp, err := c.call(proto.OpCAS, key, val, expect)
	if err != nil {
		return false, nil, err
	}
	switch resp.Status {
	case proto.OK:
		return true, nil, nil
	case proto.CASFailed:
		return false, resp.Value, nil
	default:
		return false, nil, statusErr(resp.Status)
	}
}

// FAA atomically adds delta and returns the prior value; ErrAborted means
// the RMW lost to a concurrent update and may be retried.
func (c *Client) FAA(key proto.Key, delta int64) (int64, error) {
	resp, err := c.call(proto.OpFAA, key, proto.EncodeInt64(delta), nil)
	if err != nil {
		return 0, err
	}
	if resp.Status != proto.OK {
		return 0, statusErr(resp.Status)
	}
	return proto.DecodeInt64(resp.Value), nil
}

// statusErr maps a non-OK wire status to the package's sentinel errors.
func statusErr(s proto.Status) error {
	switch s {
	case proto.Aborted:
		return ErrAborted
	case proto.NotOperational:
		return ErrNotOperational
	default:
		return fmt.Errorf("client: status %v", s)
	}
}
