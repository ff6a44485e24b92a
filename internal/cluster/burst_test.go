package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// shardMsgs unpacks one wire send into the shard messages it carries.
func shardMsgs(msg any) []proto.ShardMsg {
	switch f := msg.(type) {
	case proto.ShardMsg:
		return []proto.ShardMsg{f}
	case proto.ShardBatch:
		return f.Msgs
	}
	return nil
}

// invsSent counts the INVs for key, under epoch, that have reached the
// recording transport so far, alone or inside a batch.
func invsSent(tr *recTransport, key proto.Key, epoch uint32) int {
	n := 0
	for _, s := range tr.sends() {
		for _, sm := range shardMsgs(s.msg) {
			if inv, ok := sm.Msg.(core.INV); ok && inv.Key == key && inv.Epoch == epoch {
				n++
			}
		}
	}
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// quietNode is a 2-shard node whose peer never answers, over a transport that
// records what it is sent.
func quietNode(t *testing.T, mlt, tick time.Duration) (*ShardedNode, *recTransport) {
	t.Helper()
	tr := &recTransport{}
	sn := newShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2, MLT: mlt,
	}, tr, tick)
	t.Cleanup(sn.Close)
	return sn, tr
}

// submitWrite starts a write of key that the silent peer will never let
// commit.
func submitWrite(t *testing.T, sn *ShardedNode, key proto.Key) {
	t.Helper()
	err := sn.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}, func(proto.Completion) {})
	if err != nil {
		t.Fatal(err)
	}
}

// sendsOf returns, as their shard messages, the wire sends that carry a
// message match accepts, alone or inside a batch.
func sendsOf(tr *recTransport, match func(any) bool) [][]proto.ShardMsg {
	var out [][]proto.ShardMsg
	for _, s := range tr.sends() {
		sms := shardMsgs(s.msg)
		for _, sm := range sms {
			if match(sm.Msg) {
				out = append(out, sms)
				break
			}
		}
	}
	return out
}

// isVAL matches the VAL of key under epoch.
func isVAL(key proto.Key, epoch uint32) func(any) bool {
	return func(m any) bool { v, ok := m.(core.VAL); return ok && v.Key == key && v.Epoch == epoch }
}

// commitWrite writes key on a quiet node and commits it with the silent
// peer's ACK, handed to the node as if it had arrived; it returns once the
// write has completed.
func commitWrite(t *testing.T, sn *ShardedNode, tr *recTransport, key proto.Key) {
	t.Helper()
	done := make(chan proto.Completion, 1)
	err := sn.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}, func(c proto.Completion) { done <- c })
	if err != nil {
		t.Fatal(err)
	}
	var inv core.INV
	isINV := func(m any) bool {
		i, ok := m.(core.INV)
		if ok && i.Key == key {
			inv = i
		}
		return ok && i.Key == key
	}
	waitFor(t, "the write's INV", func() bool { return len(sendsOf(tr, isINV)) > 0 })
	sn.dispatch(1, proto.ShardMsg{Shard: proto.ShardOf(key, sn.w), Msg: core.ACK{Epoch: inv.Epoch, Key: key, TS: inv.TS}})
	if c := <-done; c.Status != proto.OK {
		t.Fatalf("write of %d: %v", key, c.Status)
	}
}

// TestNothingStaysStaged: the event loop sends what its turns staged
// before it blocks, whichever select arm woke it, except VALs waiting for
// company, and those leave at the next tick. Each step below is the only
// input the node gets, so a message still staged after it would stay there —
// an arm that forgot the hand-off fails its step's wait.
func TestNothingStaysStaged(t *testing.T) {
	const key = proto.Key(7)
	t.Run("op and install", func(t *testing.T) {
		// No ticks at all: nothing but the arm under test can flush a stage.
		sn, tr := quietNode(t, time.Hour, time.Hour)
		submitWrite(t, sn, key)
		waitFor(t, "the write's INV", func() bool { return invsSent(tr, key, 1) == 1 })
		sn.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
		waitFor(t, "the install's replayed INV", func() bool { return invsSent(tr, key, 2) == 1 })
		// CoalesceStats counts at the hand-off exactly what left the stages.
		waitFor(t, "CoalesceStats to count the sends", func() bool {
			var want [4]uint64
			for _, s := range tr.sends() {
				switch f := s.msg.(type) {
				case proto.ShardBatch:
					want[0]++
					want[1] += uint64(len(f.Msgs))
				case proto.ShardMsg:
					switch f.Msg.(type) {
					case core.INV, core.ACK, core.VAL:
						want[2]++
					}
				}
			}
			b, c, singles, dropped := sn.CoalesceStats()
			return [4]uint64{b, c, singles, dropped} == want && want[2] >= 2
		})
	})

	t.Run("tick", func(t *testing.T) {
		sn, tr := quietNode(t, 5*time.Millisecond, time.Millisecond)
		submitWrite(t, sn, key)
		// The peer never ACKs: every INV after the first is a retransmission,
		// sent by a Tick turn.
		waitFor(t, "an MLT retransmission", func() bool { return invsSent(tr, key, 1) >= 2 })
	})

	t.Run("lone VAL", func(t *testing.T) {
		// The committed write's VAL is the only message left: the tick sends
		// it, alone.
		sn, tr := quietNode(t, time.Hour, 5*time.Millisecond)
		commitWrite(t, sn, tr, key)
		committed := time.Now()
		waitFor(t, "the VAL at a tick", func() bool { return len(sendsOf(tr, isVAL(key, 1))) == 1 })
		t.Logf("VAL on the wire %v after the commit, at a 5ms tick", time.Since(committed))
		if sms := sendsOf(tr, isVAL(key, 1))[0]; len(sms) != 1 {
			t.Fatalf("the VAL left in a batch of %d with nothing else staged", len(sms))
		}

		// With no tick, it rides the shard's next INV to the peer, ahead of
		// it in one batch; and the next one leaves before an install.
		sn, tr = quietNode(t, time.Hour, time.Hour)
		other := key + 1
		for proto.ShardOf(other, sn.w) != proto.ShardOf(key, sn.w) {
			other++
		}
		commitWrite(t, sn, tr, key)
		commitWrite(t, sn, tr, other)
		sms := sendsOf(tr, isVAL(key, 1))
		if len(sms) != 1 || len(sms[0]) != 2 || !isVAL(key, 1)(sms[0][0].Msg) {
			t.Fatalf("the VAL left as %v, want [VAL, INV] in one batch", sms)
		}
		if inv, ok := sms[0][1].Msg.(core.INV); !ok || inv.Key != other {
			t.Fatalf("the VAL's company is %#v, want the INV of %d", sms[0][1].Msg, other)
		}
		if n := len(sendsOf(tr, isVAL(other, 1))); n != 0 {
			t.Fatalf("a lone VAL left at a burst's end (%d sends)", n)
		}
		sn.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}})
		if n := len(sendsOf(tr, isVAL(other, 1))); n != 1 {
			t.Fatalf("the install returned with the epoch-1 VAL sent %d times, want 1", n)
		}
	})
}

// TestBurstIsBounded: a producer that never lets the inbox run dry must not
// keep the engine inside one burst. A drain that ran "until empty" would
// never end, and its holder would never let go of the engine; a burst takes
// what was queued when it started and no more, so timers still fire — the
// unACKed write keeps retransmitting — and Close still returns. The producer
// is a peer whose requests are answered by turns that queue its next request
// before they return, so the inbox is never empty under whoever holds the
// engine: the goroutine that dispatched the first requests, in its inline
// burst, or the loop.
func TestBurstIsBounded(t *testing.T) {
	const key = proto.Key(7)
	tr := &chunkEcho{key: key}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2, MLT: 5 * time.Millisecond,
	}, tr)
	t.Cleanup(sn.Close)
	s := sn.shardFor(key)
	tr.inbox = s.msgs
	submitWrite(t, sn, key)

	const primed = 64
	reqs := make([]proto.ShardMsg, primed)
	for i := range reqs {
		reqs[i] = proto.ShardMsg{Shard: proto.ShardOf(key, sn.w), Msg: core.ChunkReq{Epoch: 1, MaxKeys: 1}}
	}
	go sn.dispatch(1, proto.ShardBatch{Msgs: reqs}) // may never return if a burst is unbounded

	sent := tr.invs.Load()
	waitFor(t, "MLT retransmissions under a never-empty inbox", func() bool { return tr.invs.Load() >= sent+2 })
	if n, queued := tr.answers.Load(), len(s.msgs); n < 2*primed || queued == 0 {
		t.Fatalf("%d requests answered, %d queued: the test lost its premise", n, queued)
	}

	closed := make(chan struct{})
	go func() { sn.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with the inbox kept full")
	}
}

// chunkEcho is a transport to a peer that asks again the moment it is
// answered: each ChunkResp the shard sends puts a new ChunkReq on the
// shard's inbox before the turn that sent it returns, so the inbox holds as
// many requests as it was primed with, forever. It keeps nothing, and counts
// the INVs of one key and the answers.
type chunkEcho struct {
	key     proto.Key
	inbox   chan env
	invs    atomic.Int64
	answers atomic.Int64
}

func (c *chunkEcho) Send(from, to proto.NodeID, msg any) {
	for _, sm := range shardMsgs(msg) {
		switch m := sm.Msg.(type) {
		case core.INV:
			if m.Key == c.key {
				c.invs.Add(1)
			}
		case core.ChunkResp:
			c.answers.Add(1)
			select { // never full: a request is taken for every answer
			case c.inbox <- env{from: to, msg: core.ChunkReq{Epoch: m.Epoch, MaxKeys: 1}}:
			default:
			}
		}
	}
}
func (c *chunkEcho) SetDeliver(proto.NodeID, func(proto.NodeID, any)) {}
func (c *chunkEcho) Close() error                                     { return nil }

// TestBurstWindowsKeepArrivalOrder: a burst longer than two windows runs its
// messages in arrival order and its ops in arrival order, across every window
// boundary. The engine is held while the burst queues — the arrivals find it
// held and stay queued — so the whole burst is waiting when it is released.
// Each message is an INV from the peer, whose turn stages an ACK to it: the
// ACKs leave in the order their INVs ran.
func TestBurstWindowsKeepArrivalOrder(t *testing.T) {
	sn, tr := quietNode(t, time.Hour, time.Hour)
	const shard = 0
	s := sn.Shard(shard)
	const burst = 2*burstWindow + 5

	release := wedge(t, sn, shard)

	keys := shardKeys(sn, shard, 1, burst)
	var ran []int // ops as i; appended on the loop only
	var wg sync.WaitGroup
	wg.Add(burst)
	for i, k := range keys {
		sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: peerINV(k)})
		op := proto.ClientOp{Kind: proto.OpRead, Key: proto.Key(1000 + i)}
		if err := s.submit(context.Background(), op, func(proto.Completion) { ran = append(ran, i); wg.Done() }, false); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.msgs) != burst || len(s.ops) != burst {
		t.Fatalf("queued %d messages and %d ops, want %d of each", len(s.msgs), len(s.ops), burst)
	}
	release()
	wg.Wait()

	for i, r := range ran {
		if r != i {
			t.Fatalf("ops ran as %v: %d out of arrival order", ran, r)
		}
	}
	waitFor(t, "an ACK for every INV", func() bool { return len(ackedKeys(tr)) == burst })
	if acked := ackedKeys(tr); !slices.Equal(acked, keys) {
		t.Fatalf("ACKs left as %v, want the INVs' arrival order %v", acked, keys)
	}
}
