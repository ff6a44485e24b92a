package cluster

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// shardKeys returns the first n keys at or above from that shard owns on sn.
func shardKeys(sn *ShardedNode, shard int, from proto.Key, n int) []proto.Key {
	var keys []proto.Key
	for k := from; len(keys) < n; k++ {
		if proto.ShardOf(k, sn.w) == uint16(shard) {
			keys = append(keys, k)
		}
	}
	return keys
}

// peerINV is an INV from the peer that a follower holding nothing for key
// applies and ACKs.
func peerINV(key proto.Key) core.INV {
	return core.INV{Epoch: 1, Key: key, TS: proto.TS{Version: 2, CID: 1}}
}

// ackedKeys lists the keys of the ACKs the transport has been handed, in
// send order.
func ackedKeys(tr *recTransport) []proto.Key {
	var keys []proto.Key
	for _, snd := range tr.sends() {
		for _, sm := range shardMsgs(snd.msg) {
			if a, ok := sm.Msg.(core.ACK); ok {
				keys = append(keys, a.Key)
			}
		}
	}
	return keys
}

// metricsOf reads shard s's engine counters as a holder of its engine.
func metricsOf(s *Shard) core.Metrics {
	s.engine.Lock()
	m := s.h.Metrics()
	s.release()
	return m
}

// TestDispatchRunsTurnsInline: arrivals for idle shards run on the goroutine
// that dispatches them. By the time dispatch returns, each shard's INV has
// had its turn — the engine is free again and counts the ACK — and the ACKs
// have been handed to the transport, with no event-loop wake-up in between.
func TestDispatchRunsTurnsInline(t *testing.T) {
	sn, tr := quietNode(t, time.Hour, time.Hour)
	k0, k1 := shardKeys(sn, 0, 1, 1)[0], shardKeys(sn, 1, 1, 1)[0]
	sn.dispatch(1, proto.ShardBatch{Msgs: []proto.ShardMsg{
		{Shard: 0, Msg: peerINV(k0)},
		{Shard: 1, Msg: peerINV(k1)},
	}})
	for i := range 2 {
		s := sn.Shard(i)
		if !s.engine.TryLock() {
			t.Fatalf("shard %d: engine still held after dispatch returned", i)
		}
		m := s.h.Metrics()
		s.release()
		if m.ACKsSent != 1 {
			t.Fatalf("shard %d: %d ACKs sent when dispatch returned, want 1", i, m.ACKsSent)
		}
	}
	if n := len(ackedKeys(tr)); n != 2 {
		t.Fatalf("%d ACKs on the wire when dispatch returned, want 2", n)
	}
}

// TestInlineDispatchLosesNoWakeup: many pumps dispatch to one shard while
// its engine is repeatedly held — by an outside holder for a while at a
// time, by the event loop for submitted ops and, in one run, ticks. A dispatch that finds
// the engine held leaves its arrivals to the holder, so a holder that did not
// pass them on would strand them. Each pump's last INV is sent while an op's
// turn holds the engine, after the burst running it counted its arrivals and
// with nothing else left to wake the loop: without ticks only the holder's
// re-check can run those INVs, and the wait below would time out.
func TestInlineDispatchLosesNoWakeup(t *testing.T) {
	for _, tc := range []struct {
		name string
		tick time.Duration
	}{{"no ticks", time.Hour}, {"ticks", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			sn, tr := quietNode(t, time.Hour, tc.tick)
			const shard, senders, each = 0, 8, 1000
			s := sn.Shard(shard)
			keys := shardKeys(sn, shard, 1, senders*each)
			readKeys := shardKeys(sn, shard, 1<<40, 16)

			quit := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(2)
			go func() { // an outside holder takes the engine for a while
				defer bg.Done()
				for {
					select {
					case <-quit:
						return
					default:
					}
					s.engine.Lock()
					time.Sleep(20 * time.Microsecond)
					s.release()
					runtime.Gosched()
				}
			}()
			var submitted, completed atomic.Int64
			go func() { // and in op turns
				defer bg.Done()
				for i := 0; ; i++ {
					select {
					case <-quit:
						return
					default:
					}
					op := proto.ClientOp{Kind: proto.OpRead, Key: readKeys[i%len(readKeys)]}
					if err := sn.SubmitAsync(op, func(proto.Completion) { completed.Add(1) }); err != nil {
						t.Error(err)
						return
					}
					submitted.Add(1)
					runtime.Gosched()
				}
			}()

			var bulkSent, lastSent, senderWG sync.WaitGroup
			gateHeld := make(chan struct{})
			bulkSent.Add(senders)
			lastSent.Add(senders)
			for g := range senders {
				senderWG.Add(1)
				go func() {
					defer senderWG.Done()
					mine := keys[g*each : (g+1)*each]
					last := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					defer func() {
						bulkSent.Done()
						<-gateHeld
						sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: peerINV(last)})
						lastSent.Done()
					}()
					for i := 0; i < len(mine); {
						if i%3 == 0 && i+4 <= len(mine) {
							batch := make([]proto.ShardMsg, 4)
							for j := range batch {
								batch[j] = proto.ShardMsg{Shard: shard, Msg: peerINV(mine[i+j])}
							}
							sn.dispatch(1, proto.ShardBatch{Msgs: batch})
							i += 4
							continue
						}
						sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: peerINV(mine[i])})
						i++
					}
				}()
			}
			bulkSent.Wait()
			close(quit)
			bg.Wait()
			gate := proto.ClientOp{Kind: proto.OpRead, Key: readKeys[0]}
			if err := sn.SubmitAsync(gate, func(proto.Completion) { close(gateHeld); lastSent.Wait() }); err != nil {
				t.Fatal(err)
			}
			senderWG.Wait()

			// Counted on the wire: a holder taken here to read the engine's
			// counters would re-check the queues itself.
			waitFor(t, "an ACK for every dispatched INV", func() bool {
				return len(ackedKeys(tr)) == senders*each
			})
			waitFor(t, "every submitted op to complete", func() bool {
				return completed.Load() == submitted.Load()
			})
		})
	}
}

// TestCloseRacesDispatch: pumps keep dispatching while the node closes.
// Every arrival either had its turn before the stop — its value, adopted
// from its frame, is in the store, which holds the frame's one reference —
// or was discarded with its reference released; none is left in the inbox,
// no turn runs once Close has returned, and the shards' goroutines are gone.
func TestCloseRacesDispatch(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := &recTransport{}
	sn := NewShardedNode(ShardedConfig{
		ID: 0, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}},
		Shards: 2, MLT: time.Hour,
	}, tr)
	t.Cleanup(sn.Close)

	const shard, senders, each = 0, 4, 1000
	s := sn.Shard(shard)
	pool := refbuf.NewPool()
	val := make([]byte, 64) // above the inline cap: the store adopts the frame
	owned := func(key proto.Key) core.INV {
		inv := peerINV(key)
		fb := pool.Get(len(val))
		copy(fb.Bytes(), val)
		inv.Value, inv.Owner = proto.Value(fb.Bytes()), fb
		return inv
	}
	keys := shardKeys(sn, shard, 1, senders*each+1)
	invs := make([]core.INV, senders*each)
	for i := range invs {
		invs[i] = owned(keys[i])
	}

	var senderWG sync.WaitGroup
	var dispatched atomic.Int64
	for g := range senders {
		senderWG.Add(1)
		go func() {
			defer senderWG.Done()
			for _, inv := range invs[g*each : (g+1)*each] {
				sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: inv})
				dispatched.Add(1)
			}
		}()
	}
	for dispatched.Load() < senders*each/4 { // let some of them run first
		runtime.Gosched()
	}
	sn.Close()
	senderWG.Wait()

	if n := len(s.msgs); n != 0 {
		t.Fatalf("%d arrivals left in the inbox after the node closed", n)
	}
	applied := 0
	for _, inv := range invs {
		e, ok := s.h.Store().Get(inv.Key)
		switch refs := inv.Owner.Refs(); {
		case ok && e.Owner == inv.Owner && refs == 1:
			applied++
		case !ok && refs == 0:
		default:
			t.Fatalf("key %d: frame holds %d references, stored %v (owner match %v)", inv.Key, refs, ok, e.Owner == inv.Owner)
		}
	}
	t.Logf("%d of %d arrivals had their turn before the stop", applied, len(invs))

	acks := metricsOf(s).ACKsSent
	late := owned(keys[len(keys)-1])
	sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: late})
	if refs := late.Owner.Refs(); refs != 0 {
		t.Fatalf("an arrival after Close holds %d frame references when dispatch returns, want 0", refs)
	}
	if got := metricsOf(s).ACKsSent; got != acks {
		t.Fatalf("a turn ran after Close: ACKs sent %d → %d", acks, got)
	}
	waitFor(t, "the node's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestInlineInstallKeepsArrivalOrder: a wire MUpdate's install runs in order
// with the peer's messages around it, whichever goroutine runs them. An INV
// the peer sent after its MUpdate runs under the new epoch, and one it sent
// before under the old: neither is dropped as stale, to wait an MLT for its
// retransmission. Once on an idle shard, where the INV's dispatch may find
// the engine free before the loop has run the install; once with the loop
// holding the engine while all three queue.
func TestInlineInstallKeepsArrivalOrder(t *testing.T) {
	const shard = 0
	mupdate := proto.MUpdate{Shard: shard, View: proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}}
	newINV := func(key proto.Key) core.INV {
		inv := peerINV(key)
		inv.Epoch = 2
		return inv
	}
	check := func(t *testing.T, sn *ShardedNode, tr *recTransport, keys []proto.Key) {
		t.Helper()
		waitFor(t, "an ACK for every INV", func() bool { return len(ackedKeys(tr)) == len(keys) })
		if acked := ackedKeys(tr); !slices.Equal(acked, keys) {
			t.Fatalf("ACKs left as %v, want %v", acked, keys)
		}
		s := sn.Shard(shard)
		if m := metricsOf(s); m.StaleEpochDrops != 0 {
			t.Fatalf("%d INVs dropped as stale", m.StaleEpochDrops)
		}
		if e := s.h.ReadGate().Epoch(); e != 2 {
			t.Fatalf("shard at epoch %d after the MUpdate, want 2", e)
		}
	}

	t.Run("idle", func(t *testing.T) {
		sn, tr := quietNode(t, time.Hour, time.Hour)
		k := shardKeys(sn, shard, 1, 1)[0]
		sn.dispatch(1, mupdate)
		sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: newINV(k)})
		check(t, sn, tr, []proto.Key{k})
	})

	t.Run("engine held", func(t *testing.T) {
		sn, tr := quietNode(t, time.Hour, time.Hour)
		keys := shardKeys(sn, shard, 1, 2)
		release := wedge(t, sn, shard)
		sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: peerINV(keys[0])})
		sn.dispatch(1, mupdate)
		sn.dispatch(1, proto.ShardMsg{Shard: shard, Msg: newINV(keys[1])})
		release()
		check(t, sn, tr, keys)
	})
}
