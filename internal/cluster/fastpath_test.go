package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvs"
	"repro/internal/linear"
	"repro/internal/proto"
	"repro/internal/shardhost"
)

func TestFastPathHitCounters(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	n := l.Nodes[0]
	if err := n.Write(ctx, 1, proto.Value("v")); err != nil {
		t.Fatal(err)
	}
	_, hits0, _ := n.ReadStats()
	const reads = 100
	for i := 0; i < reads; i++ {
		if v, err := n.Read(ctx, 1); err != nil || string(v) != "v" {
			t.Fatalf("read %d: %q %v", i, v, err)
		}
	}
	total, hits, misses := n.ReadStats()
	if hits-hits0 != reads {
		t.Fatalf("fast-path hits %d, want %d (misses=%d total=%d)", hits-hits0, reads, misses, total)
	}
}

// TestReadLocalIntoAllocatesNothing: the read-into door on an inline key —
// gate load, index probe, word, meta and value words copied into the caller's
// buffer, word, gate re-load, one striped counter bump — allocates nothing
// and pins nothing.
func TestReadLocalIntoAllocatesNothing(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 2)
	defer l.Close()
	val := make(proto.Value, kvs.InlineCap)
	for i := range val {
		val[i] = byte(i + 1)
	}
	n := l.Nodes[0]
	if err := n.Write(context.Background(), 1, val); err != nil {
		t.Fatal(err)
	}
	var buf [kvs.InlineCap]byte
	allocs := testing.AllocsPerRun(1000, func() {
		got, v, owner, ok := n.ReadLocalInto(1, &buf)
		if !ok || got != len(val) || v != nil || owner != nil || string(buf[:got]) != string(val) {
			t.Fatalf("ReadLocalInto: n=%d v=%v owner=%v ok=%v", got, v, owner, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadLocalInto of a %d B value allocates %.1f/op; want 0", kvs.InlineCap, allocs)
	}
}

// TestNodePrefetchAllocatesNothing: the session's per-frame pass over a
// node's shard stores — present keys and absent ones, more than one batch —
// allocates nothing and leaves every key as it was.
func TestNodePrefetchAllocatesNothing(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 2)
	defer l.Close()
	n := l.Nodes[0]
	keys := make([]proto.Key, 2*shardhost.BurstWindow+3)
	for i := range keys {
		keys[i] = proto.Key(i)
		if i%2 == 0 {
			if err := n.Write(context.Background(), keys[i], proto.Value("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { n.Prefetch(keys) }); allocs != 0 {
		t.Fatalf("ShardedNode.Prefetch allocates %.1f/op; want 0", allocs)
	}
	for i, k := range keys {
		sl := n.shardFor(k).h.Store().Lookup(k)
		if (sl != nil) != (i%2 == 0) {
			t.Fatalf("key %d: slot %p after Prefetch", k, sl)
		}
	}
}

func TestFastPathDisabledUnderNoLSC(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, NoLSC: true}, 1)
	defer l.Close()
	ctx := context.Background()
	n := l.Nodes[0]
	if err := n.Write(ctx, 1, proto.Value("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, err := n.Read(ctx, 1); err != nil || string(v) != "v" {
			t.Fatalf("read: %q %v", v, err)
		}
	}
	// Every read must have taken the §8 speculative Submit path: hit rate
	// exactly zero.
	if _, hits, misses := n.ReadStats(); hits != 0 || misses < 10 {
		t.Fatalf("NoLSC: hits=%d misses=%d, want 0 hits", hits, misses)
	}
}

// TestReadGateClosesDuringViewChange pins the transition-window behaviour:
// from the moment InstallView is called until the shard's engine finishes
// OnViewChange, the gate is shut and reads fall back to the Submit path.
func TestReadGateClosesDuringViewChange(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	n := l.Nodes[0]
	if err := n.Write(ctx, 1, proto.Value("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := n.Read(ctx, 1); err != nil || string(v) != "v" {
		t.Fatalf("warm read: %q %v", v, err)
	}

	// Hold the engine so the m-update cannot complete, freezing the
	// transition window open for inspection.
	release := wedge(t, n, 0)

	installed := make(chan struct{})
	go func() {
		n.InstallView(proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}})
		close(installed)
	}()
	// InstallView shuts the gate synchronously before enqueueing the
	// m-update; wait for that to be observable.
	deadline := time.Now().Add(5 * time.Second)
	for n.Shard(0).h.ReadGate().Allowed() {
		if time.Now().After(deadline) {
			t.Fatal("gate still open during view installation")
		}
		time.Sleep(time.Millisecond)
	}

	// A read inside the window must fall back — and with the engine held
	// the Submit path cannot answer, so it times out instead of serving a
	// possibly-stale fast-path value.
	_, hits0, misses0 := n.ReadStats()
	rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := n.Read(rctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("read during window: err=%v, want deadline exceeded", err)
	}
	_, hits1, misses1 := n.ReadStats()
	if hits1 != hits0 || misses1 != misses0+1 {
		t.Fatalf("window read: hits %d->%d misses %d->%d, want one miss, no hits",
			hits0, hits1, misses0, misses1)
	}

	release()
	<-installed
	if !n.Shard(0).h.ReadGate().Allowed() || n.Shard(0).h.ReadGate().Epoch() != 2 {
		t.Fatalf("gate after install: allowed=%v epoch=%d", n.Shard(0).h.ReadGate().Allowed(), n.Shard(0).h.ReadGate().Epoch())
	}
	if v, err := n.Read(ctx, 1); err != nil || string(v) != "v" {
		t.Fatalf("read after install: %q %v", v, err)
	}
}

// TestFastPathLinearizableUnderViewChanges hammers one key with fast-path
// reads racing writes, CAS, FAA and m-update epoch bumps, then checks the
// recorded history against the Wing–Gong oracle. Run with -race.
func TestFastPathLinearizableUnderViewChanges(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 5 * time.Millisecond}, 1)
	defer l.Close()
	ctx := context.Background()
	const key = proto.Key(42)

	hist := linear.NewHistory()
	var hmu sync.Mutex
	var nextID atomic.Uint64
	start := time.Now()
	invoke := func(kind linear.Kind, arg, exp proto.Value) uint64 {
		id := nextID.Add(1)
		hmu.Lock()
		hist.Invoke(id, key, kind, arg, exp, time.Since(start))
		hmu.Unlock()
		return id
	}
	ret := func(id uint64, kind linear.Kind, out proto.Value) {
		hmu.Lock()
		hist.Return(id, kind, out, time.Since(start))
		hmu.Unlock()
	}
	discard := func(id uint64) {
		hmu.Lock()
		hist.Discard(id)
		hmu.Unlock()
	}

	var wg sync.WaitGroup
	// Two fast-path readers on different replicas.
	for _, n := range []*ShardedNode{l.Nodes[0], l.Nodes[1]} {
		wg.Add(1)
		go func(n *ShardedNode) {
			defer wg.Done()
			for i := 0; i < 75; i++ {
				id := invoke(linear.KRead, nil, nil)
				v, err := n.Read(ctx, key)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				ret(id, linear.KRead, v)
			}
		}(n)
	}
	// A writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			val := proto.EncodeInt64(int64(j))
			id := invoke(linear.KWrite, val, nil)
			if err := l.Nodes[2].Write(ctx, key, val); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			ret(id, linear.KWrite, nil)
		}
	}()
	// FAA and CAS contenders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 30; j++ {
			id := invoke(linear.KFAA, proto.EncodeInt64(1), nil)
			prior, err := l.Nodes[0].FAA(ctx, key, 1)
			if err == ErrAborted {
				discard(id)
				continue
			}
			if err != nil {
				t.Errorf("faa: %v", err)
				return
			}
			ret(id, linear.KFAA, proto.EncodeInt64(prior))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			exp, val := proto.EncodeInt64(int64(j)), proto.EncodeInt64(int64(1000+j))
			id := invoke(linear.KCASOk, val, exp)
			ok, observed, err := l.Nodes[1].CAS(ctx, key, exp, val)
			switch {
			case err == ErrAborted:
				discard(id)
			case err != nil:
				t.Errorf("cas: %v", err)
				return
			case ok:
				ret(id, linear.KCASOk, nil)
			default:
				ret(id, linear.KCASFail, observed)
			}
		}
	}()
	// m-update storm: epoch bumps with unchanged membership on every node,
	// shutting and reopening every read gate mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint32(2); e <= 6; e++ {
			time.Sleep(5 * time.Millisecond)
			v := proto.View{Epoch: e, Members: []proto.NodeID{0, 1, 2}}
			for _, n := range l.Nodes {
				n.InstallView(v)
			}
		}
	}()
	wg.Wait()

	hist.Close()
	if k, res, ok := hist.CheckAll(); !ok {
		t.Fatalf("history of key %d not linearizable: %s", k, res.Info)
	}
	_, hits, misses := l.Nodes[0].ReadStats()
	_, hits1, misses1 := l.Nodes[1].ReadStats()
	if hits+hits1 == 0 {
		t.Fatalf("no fast-path hits recorded (misses %d/%d): fast path never engaged", misses, misses1)
	}
}

// BenchmarkLiveFastRead measures the lock-free read fast path end to end on
// the live runtime; run with -benchmem to see it allocation-free.
func BenchmarkLiveFastRead(b *testing.B) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	if err := l.Nodes[0].Write(ctx, 1, proto.Value("v")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Nodes[0].Read(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveWrite covers the Submit slow path (completion-channel pool):
// -benchmem shows the per-op allocation drop from pooling.
func BenchmarkLiveWrite(b *testing.B) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	val := proto.Value("v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Nodes[0].Write(ctx, proto.Key(i%64), val); err != nil {
			b.Fatal(err)
		}
	}
}
