package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/proto"
)

// waitEpochs polls until fn is satisfied (async installs need a beat to
// drain through the event loops).
func waitEpochs(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("epochs never reached the expected state")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInstallShardViewAdvancesOnlyThatShard pins the per-shard epoch
// machinery: installing on shard i moves shard i's epoch and nobody else's,
// and the untouched shards keep committing writes throughout.
func TestInstallShardViewAdvancesOnlyThatShard(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	keys := keysOnDistinctShards(w)
	const hot = 2

	v2 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	for _, n := range l.Nodes {
		n.InstallShardView(hot, v2)
	}
	for _, n := range l.Nodes {
		for i, e := range n.ShardEpochs() {
			want := uint32(1)
			if i == hot {
				want = 2
			}
			if e != want {
				t.Fatalf("node %d shard %d epoch %d, want %d", n.ID(), i, e, want)
			}
		}
	}
	// Every shard — advanced or not — still serves: shard s here only talks
	// to shard s on peers, so a per-shard epoch skew between shards is not a
	// mismatch anywhere.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, k := range keys {
		if err := l.Nodes[i%3].Write(ctx, k, proto.Value("skewed")); err != nil {
			t.Fatalf("write shard %d under epoch skew: %v", proto.ShardOf(k, w), err)
		}
		if v, err := l.Nodes[(i+1)%3].Read(ctx, k); err != nil || string(v) != "skewed" {
			t.Fatalf("read shard %d under epoch skew: %q %v", proto.ShardOf(k, w), v, err)
		}
	}
}

// TestStaggeredGateIsolation is the satellite acceptance check: while shard
// i's read gate is shut mid-install (its engine deliberately wedged so
// the transition window stays open), every other shard keeps serving
// fast-path reads at a 100% hit rate.
func TestStaggeredGateIsolation(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	ctx := context.Background()
	sn := l.Nodes[0]
	keys := keysOnDistinctShards(w)
	for _, k := range keys {
		if err := sn.Write(ctx, k, proto.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	const hot = 1

	// Wedge shard hot's engine, then start its install: the gate shuts
	// immediately and cannot reopen until the engine is released.
	release := wedge(t, sn, hot)
	installed := make(chan struct{})
	go func() {
		sn.InstallShardView(hot, proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}})
		close(installed)
	}()
	waitEpochs(t, func() bool { return !sn.Shard(hot).h.ReadGate().Allowed() })

	// Snapshot the untouched shards' counters, hammer them with reads, and
	// require every single one to have hit the fast path.
	type snap struct{ hits, misses uint64 }
	before := make(map[int]snap)
	for j := 0; j < w; j++ {
		if j == hot {
			continue
		}
		_, h, m := sn.Shard(j).h.ReadStats()
		before[j] = snap{h, m}
	}
	const reads = 200
	for i := 0; i < reads; i++ {
		for j, k := range keys {
			if j == hot {
				continue
			}
			if v, err := sn.Read(ctx, k); err != nil || string(v) != "v" {
				t.Fatalf("read shard %d during shard %d's install: %q %v", j, hot, v, err)
			}
		}
	}
	for j := 0; j < w; j++ {
		if j == hot {
			continue
		}
		_, h, m := sn.Shard(j).h.ReadStats()
		if h-before[j].hits != reads || m != before[j].misses {
			t.Fatalf("shard %d during shard %d's install: hits +%d (want +%d), misses +%d (want 0)",
				j, hot, h-before[j].hits, reads, m-before[j].misses)
		}
	}

	// The hot shard itself must NOT serve fast-path reads in the window.
	rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := sn.Read(rctx, keys[hot]); err != context.DeadlineExceeded {
		t.Fatalf("hot-shard read during install: err=%v, want deadline exceeded", err)
	}

	release()
	<-installed
	if got := sn.ShardEpochs()[hot]; got != 2 {
		t.Fatalf("hot shard epoch after install: %d, want 2", got)
	}
	if v, err := sn.Read(ctx, keys[hot]); err != nil || string(v) != "v" {
		t.Fatalf("hot-shard read after install: %q %v", v, err)
	}
}

// TestWireMUpdateInstallsAsync is the live half of m-update addressing (the
// addressing table itself is shardhost's TestMUpdateAddressing): a
// proto.MUpdate arriving on the transport pump reaches the addressed shards'
// event loops asynchronously — one shard, then all of them — on a W=4 node
// and on a plain W=1 node, which is its own shard 0.
func TestWireMUpdateInstallsAsync(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	sn := l.Nodes[0]

	// Single-shard target, injected as if from peer 1.
	l.Tr.Send(1, 0, proto.MUpdate{Shard: 3, View: view3(2)})
	waitEpochs(t, func() bool { return sn.ShardEpochs()[3] == 2 })
	for i, e := range sn.ShardEpochs() {
		if want := uint32(1); i != 3 && e != want {
			t.Fatalf("shard %d epoch %d after targeted MUpdate, want %d", i, e, want)
		}
	}
	l.Tr.Send(1, 0, proto.MUpdate{Shard: proto.AllShards, View: view3(4)})
	waitEpochs(t, func() bool {
		for _, e := range sn.ShardEpochs() {
			if e != 4 {
				return false
			}
		}
		return true
	})

	pl := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer pl.Close()
	n := pl.Nodes[0]
	pl.Tr.Send(1, 0, proto.MUpdate{Shard: 0, View: view3(3)})
	waitEpochs(t, func() bool { return n.ShardEpochs()[0] == 3 })
	pl.Tr.Send(1, 0, proto.MUpdate{Shard: proto.AllShards, View: view3(4)})
	waitEpochs(t, func() bool { return n.ShardEpochs()[0] == 4 })
}

// TestDuplicateInstallReopensGate is the regression for the stale-epoch gate
// fix: a redelivered (duplicate) m-update shuts the gate before OnViewChange
// sees it is a no-op, and the no-op path must republish the gate — otherwise
// the fast path stays shut forever after the first duplicate on a lossy
// wire.
func TestDuplicateInstallReopensGate(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	n := l.Nodes[0]
	if err := n.Write(ctx, 1, proto.Value("v")); err != nil {
		t.Fatal(err)
	}
	v2 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	n.InstallView(v2)
	n.InstallView(v2) // duplicate: stale epoch, must still reopen the gate
	if !n.Shard(0).h.ReadGate().Allowed() || n.Shard(0).h.ReadGate().Epoch() != 2 {
		t.Fatalf("gate after duplicate install: allowed=%v epoch=%d, want open at 2",
			n.Shard(0).h.ReadGate().Allowed(), n.Shard(0).h.ReadGate().Epoch())
	}
	_, hits0, _ := n.ReadStats()
	if v, err := n.Read(ctx, 1); err != nil || string(v) != "v" {
		t.Fatalf("read after duplicate install: %q %v", v, err)
	}
	if _, hits, _ := n.ReadStats(); hits != hits0+1 {
		t.Fatal("read after duplicate install missed the fast path")
	}
}
