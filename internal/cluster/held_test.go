package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

// allINVsSent counts the INVs for keys, under epoch 1, on the transport.
func allINVsSent(tr *recTransport, keys []proto.Key) int {
	n := 0
	for _, k := range keys {
		n += invsSent(tr, k, 1)
	}
	return n
}

// TestHeldFrameRunsInline: ops submitted held wait on their shards' queues,
// waking nothing, and RunHeld runs them on the calling goroutine. With the
// shards' tickers silent nothing else could run them, yet when RunHeld
// returns each engine is free and every write's INV is on the transport.
func TestHeldFrameRunsInline(t *testing.T) {
	sn, tr := quietNode(t, time.Hour, time.Hour)
	const each = 3
	var keys []proto.Key
	for shard := range 2 {
		keys = append(keys, shardKeys(sn, shard, 1, each)...)
	}
	for _, k := range keys {
		if err := sn.SubmitHeld(proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: proto.Value("v")}, func(proto.Completion) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 2 {
		if n := len(sn.Shard(i).ops); n != each {
			t.Fatalf("shard %d: %d ops queued before RunHeld, want %d", i, n, each)
		}
	}
	if n := allINVsSent(tr, keys); n != 0 {
		t.Fatalf("%d INVs on the wire before RunHeld, want 0", n)
	}
	sn.RunHeld()
	for i := range 2 {
		s := sn.Shard(i)
		if !s.engine.TryLock() {
			t.Fatalf("shard %d: engine still held after RunHeld returned", i)
		}
		queued := len(s.ops)
		s.release()
		if queued != 0 {
			t.Fatalf("shard %d: %d ops still queued after RunHeld", i, queued)
		}
	}
	if invs := allINVsSent(tr, keys); invs != len(keys) {
		t.Fatalf("%d INVs on the wire when RunHeld returned, want %d", invs, len(keys))
	}
}

// TestHeldOpsLoseNoWakeup: several sessions submit frames of held reads to
// one shard and run them, while an outside holder keeps taking the engine. A
// RunHeld that finds the engine held leaves the frame's ops to the holder,
// so a holder that did not pass them on would strand them. Each session's
// last frame is submitted and run while the engine is held and nothing else
// is left to wake the loop: without ticks only the holder's re-check can run
// those ops, and the wait below would time out.
func TestHeldOpsLoseNoWakeup(t *testing.T) {
	for _, tc := range []struct {
		name string
		tick time.Duration
	}{{"no ticks", time.Hour}, {"ticks", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			sn, _ := quietNode(t, time.Hour, tc.tick)
			const shard, sessions, frames = 0, 8, 300
			s := sn.Shard(shard)
			keys := shardKeys(sn, shard, 1<<40, 16)

			var submitted, completed atomic.Int64
			frame := func(size int) {
				for i := range size {
					op := proto.ClientOp{Kind: proto.OpRead, Key: keys[i%len(keys)]}
					if err := sn.SubmitHeld(op, func(proto.Completion) { completed.Add(1) }); err != nil {
						t.Error(err)
						return
					}
					submitted.Add(1)
				}
				sn.RunHeld()
			}

			quit := make(chan struct{})
			var holder sync.WaitGroup
			holder.Add(1)
			go func() { // an outside holder takes the engine for a while
				defer holder.Done()
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
			var bulk sync.WaitGroup
			for g := range sessions {
				bulk.Add(1)
				go func() {
					defer bulk.Done()
					for f := range frames {
						frame(1 + (g+f)%7)
					}
				}()
			}
			bulk.Wait()
			close(quit)
			holder.Wait()

			release := wedge(t, sn, shard)
			var last sync.WaitGroup
			for range sessions {
				last.Add(1)
				go func() {
					defer last.Done()
					frame(3)
				}()
			}
			last.Wait()
			release()

			waitFor(t, "every held op to complete", func() bool {
				return completed.Load() == submitted.Load()
			})
		})
	}
}

// TestHeldSubmitsPastQueueCapacity: more held ops than a shard's ops queue
// holds, submitted with no RunHeld in between, all complete. Only a holder
// of the engine drains the queue and the ticker is silent, so a held submit
// that waited for room without ringing the loop's bell first would wait
// forever.
func TestHeldSubmitsPastQueueCapacity(t *testing.T) {
	sn, _ := quietNode(t, time.Hour, time.Hour)
	const shard = 0
	ops := 3*cap(sn.Shard(shard).ops) + 1
	keys := shardKeys(sn, shard, 1<<40, 16)
	var completed atomic.Int64
	submitted := make(chan error, 1)
	go func() {
		for i := range ops {
			op := proto.ClientOp{Kind: proto.OpRead, Key: keys[i%len(keys)]}
			if err := sn.SubmitHeld(op, func(proto.Completion) { completed.Add(1) }); err != nil {
				submitted <- err
				return
			}
		}
		sn.RunHeld()
		submitted <- nil
	}()
	waitFor(t, "every held op to complete", func() bool { return completed.Load() == int64(ops) })
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
}
