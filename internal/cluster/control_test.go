package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/proto"
)

// settledGoroutines is the goroutine count once it has stopped moving: what
// earlier tests started may still be on its way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestIdleNodeGoroutines: a node's shards have no goroutines of their own.
// An idle W = 4 node over a transport that starts none adds exactly one, its
// control goroutine, and Close takes it away again.
func TestIdleNodeGoroutines(t *testing.T) {
	before := settledGoroutines()
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 4, MLT: time.Hour,
	}, &recTransport{})
	if added := settledGoroutines() - before; added != 1 {
		sn.Close()
		t.Fatalf("an idle 4-shard node runs %d goroutines, want 1 (the control goroutine)", added)
	}
	sn.Close()
	waitFor(t, "the node's goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestControlRunsPastHeldEngine: the control goroutine never waits for an
// engine. With shard 0's engine held and an op handed to the control
// goroutine for it, shard 1's ops still run and its unACKed write keeps
// retransmitting on the clock; once shard 0 is let go, its holder hands the
// op back and it runs too.
func TestControlRunsPastHeldEngine(t *testing.T) {
	sn, tr := quietNode(t, 5*time.Millisecond, time.Millisecond)
	k0, k1 := shardKeys(sn, 0, 1, 1)[0], shardKeys(sn, 1, 1, 1)[0]
	release := wedge(t, sn, 0)
	submitWrite(t, sn, k0)
	waitFor(t, "the op handed to the control goroutine", func() bool { return !sn.Shard(0).handed.Load() })
	submitWrite(t, sn, k1)
	waitFor(t, "shard 1's write and its retransmissions", func() bool { return invsSent(tr, k1, 1) >= 3 })
	if n := invsSent(tr, k0, 1); n != 0 {
		t.Fatalf("shard 0's write sent %d INVs with its engine held", n)
	}
	release()
	waitFor(t, "shard 0's write once its engine is free", func() bool { return invsSent(tr, k0, 1) >= 1 })
}

// TestControlTickOwedToHolder: a tick of the clock that finds the engine
// held is left to the holder, which runs it when it lets go. The committed
// write's VAL waits for a tick; the tick comes while the engine is held, so
// the VAL is on the wire by the time the holder's release returns — not at
// the clock's next tick, a long period later.
func TestControlTickOwedToHolder(t *testing.T) {
	const period = 200 * time.Millisecond
	sn, tr := quietNode(t, time.Hour, period)
	const key = proto.Key(7)
	s := sn.shardFor(key)
	commitWrite(t, sn, tr, key)
	release := wedge(t, sn, int(proto.ShardOf(key, sn.w)))
	if n := len(sendsOf(tr, isVAL(key, 1))); n != 0 {
		t.Fatalf("the VAL left before the engine was held (%d sends): the test lost its premise", n)
	}
	waitFor(t, "a tick owed to the held engine", s.tickDue.Load)
	release()
	if n := len(sendsOf(tr, isVAL(key, 1))); n != 1 {
		t.Fatalf("the VAL was sent %d times when the holder let go, want 1 (the owed tick's)", n)
	}
}
