package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

// The live roll: agent-decided views staggered across shards by live load by
// the node's control goroutine, at most one read gate shut at a time,
// idempotent redelivery, node-wide fencing on removal, and view-log
// fast-forward for laggards.

func view3(e uint32) proto.View {
	return proto.View{Epoch: e, Members: []proto.NodeID{0, 1, 2}}
}

// wedge holds shard's engine, as a turn that never ends would, until release
// is called, at the latest when the test ends: no turn runs on the shard
// meanwhile, so an install queued behind it stays in flight, its read gate
// shut. release lets go of the engine as every holder does (Shard.release),
// passing on what queued meanwhile. The node must be closed by a cleanup
// registered earlier, which runs after this one.
func wedge(t *testing.T, sn *ShardedNode, shard int) (release func()) {
	s := sn.Shard(shard)
	s.engine.Lock()
	var once sync.Once
	release = func() { once.Do(func() { s.release() }) }
	t.Cleanup(release)
	return release
}

// TestRolloutOrdersByLoadOneGateAtATime pins the two tentpole properties of
// a roll: shards install coolest-first (per the live read/write counters),
// and at most one gate is ever shut. Every shard's engine is wedged, so an
// install handed out keeps its gate shut until the test releases that shard:
// an install handed out before the previous one landed would show as a
// second shut gate and a second install counted.
func TestRolloutOrdersByLoadOneGateAtATime(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	t.Cleanup(l.Close)
	ctx := context.Background()
	sn := l.Nodes[0]
	keys := keysOnDistinctShards(w)
	for _, k := range keys {
		if err := sn.Write(ctx, k, proto.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Skew the load: shard order by reads becomes 3 < 1 < 2 < 0.
	reads := map[int]int{0: 40, 1: 10, 2: 30, 3: 0}
	for s, n := range reads {
		for i := 0; i < n; i++ {
			if _, err := sn.Read(ctx, keys[s]); err != nil {
				t.Fatal(err)
			}
		}
	}
	release := make([]func(), w)
	for s := range release {
		release[s] = wedge(t, sn, s)
	}
	shutGates := func() (shut []int) {
		for j := 0; j < w; j++ {
			if !sn.Shard(j).h.ReadGate().Allowed() {
				shut = append(shut, j)
			}
		}
		return shut
	}

	sn.OnView(view3(2))
	var order []int
	for len(order) < w {
		waitEpochs(t, func() bool { return len(shutGates()) > 0 })
		// Give the control goroutine several steps to misbehave.
		time.Sleep(5 * rollStagger)
		shut := shutGates()
		if len(shut) != 1 {
			t.Fatalf("gates %v shut at once after installs %v, want one at a time", shut, order)
		}
		if got := sn.HostStats().ShardInstalls; got != uint64(len(order)+1) {
			t.Fatalf("%d installs handed out with %d landed, want one in flight", got, len(order))
		}
		s := shut[0]
		order = append(order, s)
		release[s]()
		waitEpochs(t, func() bool { return sn.ShardEpochs()[s] == 2 })
	}
	if want := []int{3, 1, 2, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("install order %v, want coolest-first %v", order, want)
	}
	if st := sn.HostStats(); st.Views != 1 || st.ShardInstalls != uint64(w) {
		t.Fatalf("stats %+v, want 1 view / %d shard installs", st, w)
	}
}

// TestRolloutRedeliveryDoesNotReShutGates is the roll-level regression
// mirroring PR 4's duplicate-install read-gate bug: a redelivered view (a
// lossy wire re-sends MUpdates, an agent re-fires a commit) must be dropped
// idempotently — counted, but with no gate shut, no install performed, and
// the fast path still serving.
func TestRolloutRedeliveryDoesNotReShutGates(t *testing.T) {
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

	// First delivery arrives over the wire as a node-wide MUpdate — the
	// dispatch path must route it through the roll, not shut all four gates
	// at once.
	l.Tr.Send(1, 0, proto.MUpdate{Shard: proto.AllShards, View: view3(2)})
	waitEpochs(t, func() bool {
		for _, e := range sn.ShardEpochs() {
			if e != 2 {
				return false
			}
		}
		return true
	})
	installs := sn.HostStats().ShardInstalls

	// Redeliver the same view: directly and over the wire.
	sn.OnView(view3(2))
	l.Tr.Send(1, 0, proto.MUpdate{Shard: proto.AllShards, View: view3(2)})
	deadline := time.Now().Add(200 * time.Millisecond)
	for sn.HostStats().Redelivered < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sn.HostStats().Redelivered; got != 2 {
		t.Fatalf("redelivered = %d, want 2", got)
	}
	if got := sn.HostStats().ShardInstalls; got != installs {
		t.Fatalf("redelivery performed %d extra installs", got-installs)
	}
	for j := 0; j < w; j++ {
		if !sn.Shard(j).h.ReadGate().Allowed() {
			t.Fatalf("shard %d's gate shut by a redelivered view", j)
		}
	}
	// And the fast path still serves: every read below must hit.
	_, h0, _ := sn.Shard(0).h.ReadStats()
	if v, err := sn.Read(ctx, keys[0]); err != nil || string(v) != "v" {
		t.Fatalf("read after redelivery: %q %v", v, err)
	}
	if _, h, _ := sn.Shard(0).h.ReadStats(); h != h0+1 {
		t.Fatal("read after redelivery missed the fast path")
	}
}

// TestRolloutNodeWideFallbackOnRemoval: a view that fences the local node
// installs on every shard at once — staggering a removal would keep serving
// shards the new membership no longer sanctions.
func TestRolloutNodeWideFallbackOnRemoval(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	sn := l.Nodes[0]

	sn.OnView(proto.View{Epoch: 2, Members: []proto.NodeID{1, 2}})
	waitEpochs(t, func() bool {
		for _, e := range sn.ShardEpochs() {
			if e != 2 {
				return false
			}
		}
		return true
	})
	if st := sn.HostStats(); st.NodeWideFallbacks != 1 || st.ShardInstalls != 0 {
		t.Fatalf("stats %+v, want exactly one node-wide fallback and no staggered installs", st)
	}
	for j := 0; j < w; j++ {
		if sn.Shard(j).h.ReadGate().Allowed() {
			t.Fatalf("shard %d still serving after the view removed this node", j)
		}
	}
	// Re-adding the node resumes the staggered path and reopens the gates.
	sn.OnView(view3(3))
	waitEpochs(t, func() bool {
		for j := 0; j < w; j++ {
			if !sn.Shard(j).h.ReadGate().Allowed() || sn.ShardEpochs()[j] != 3 {
				return false
			}
		}
		return true
	})
	if st := sn.HostStats(); st.ShardInstalls != w {
		t.Fatalf("re-add rolled %d shard installs, want %d", st.ShardInstalls, w)
	}
}

// TestRolloutFastForwardViaViewLog: a node that missed several decided views
// (its agent was down) pulls the gap from a peer's view log over the
// transport and fast-forwards every shard — without a restart and without
// any out-of-band install. The transport drops every epoch-gossip frame, so
// the node stays behind until FastForward asks: this pins the manual path
// alone (TestGossipOnByDefaultHealsLaggard pins the one gossip drives).
func TestRolloutFastForwardViaViewLog(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	l.Tr.SetDrop(func(_, _ proto.NodeID, msg any) bool {
		_, gossip := msg.(proto.EpochGossip)
		return gossip
	})
	a, b := l.Nodes[0], l.Nodes[1]

	// Epochs 2..5 reach only node 0 (node 1's agent missed the decisions
	// entirely).
	for e := uint32(2); e <= 5; e++ {
		a.OnView(view3(e))
	}
	waitEpochs(t, func() bool {
		for _, e := range a.ShardEpochs() {
			if e != 5 {
				return false
			}
		}
		return true
	})
	for _, e := range b.ShardEpochs() {
		if e != 1 {
			t.Fatalf("node 1 advanced to %v without any delivery", b.ShardEpochs())
		}
	}

	// Node 1 detects the lag (live: epoch gossip; here: the test, gossip
	// being dropped) and fetches the gap from node 0.
	b.FastForward(0)
	waitEpochs(t, func() bool {
		for _, e := range b.ShardEpochs() {
			if e != 5 {
				return false
			}
		}
		return true
	})
	st := b.HostStats()
	if st.FFRequests != 1 {
		t.Fatalf("ffRequests = %d, want 1", st.FFRequests)
	}
	if st.FFApplied != 4 {
		t.Fatalf("ffApplied = %d, want 4 (epochs 2..5)", st.FFApplied)
	}
	// A ViewLogResp pushed at node 2 replays through the same install path:
	// its node-wide entries roll.
	c := l.Nodes[2]
	l.Tr.Send(0, 2, proto.ViewLogResp{Updates: []proto.MUpdate{
		{Shard: proto.AllShards, View: view3(4)},
		{Shard: proto.AllShards, View: view3(5)},
	}})
	waitEpochs(t, func() bool {
		for _, e := range c.ShardEpochs() {
			if e != 5 {
				return false
			}
		}
		return true
	})
}

// viewLogSpy stands up one bare node (id 1, no membership agent) next to a
// raw transport endpoint (id 0) that records every ViewLogResp the node sends
// it — and ignores its epoch gossip: the wire-level view of the node's view
// log.
func viewLogSpy(t *testing.T, shards int) (*ShardedNode, *ChanTransport, func(proto.ViewLogReq) [][2]uint32) {
	t.Helper()
	tr := NewChanTransport([]proto.NodeID{0, 1})
	t.Cleanup(func() { tr.Close() })
	sn := NewShardedNode(ShardedConfig{
		ID: 1, View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}}, Shards: shards,
	}, tr)
	t.Cleanup(sn.Close)
	resps := make(chan proto.ViewLogResp, 4)
	tr.SetDeliver(0, func(from proto.NodeID, msg any) {
		if r, ok := msg.(proto.ViewLogResp); ok {
			resps <- r
		}
	})
	ask := func(req proto.ViewLogReq) [][2]uint32 {
		t.Helper()
		tr.Send(0, 1, req)
		select {
		case r := <-resps:
			var out [][2]uint32
			for _, mu := range r.Updates {
				out = append(out, [2]uint32{uint32(mu.Shard), mu.View.Epoch})
			}
			return out
		case <-time.After(5 * time.Second):
			t.Fatalf("node never answered %+v", req)
			return nil
		}
	}
	return sn, tr, ask
}

// TestViewLogReqAlwaysAnswered: every ViewLogReq gets a ViewLogResp — empty
// when the node retains nothing. Both a W=4 and a plain W=1 node answer, off
// the transport pump.
func TestViewLogReqAlwaysAnswered(t *testing.T) {
	for _, w := range []int{4, 1} {
		_, _, ask := viewLogSpy(t, w)
		if ups := ask(proto.ViewLogReq{Shard: proto.AllShards, Since: 0}); len(ups) != 0 {
			t.Fatalf("W=%d: fresh node served %v from nowhere", w, ups)
		}
		if ups := ask(proto.ViewLogReq{Shard: 0, Since: 0}); len(ups) != 0 {
			t.Fatalf("W=%d: fresh node served %v from nowhere", w, ups)
		}
	}
}

// TestBareNodeServesWhatItInstalled pins three places the live runtime used
// to disagree with the simulator (each assertion failed before the shared
// host): a node with no membership agent — what cmd/hermes-node runs —
// retains a view log at all; a shard-scoped wire MUpdate it installed is
// retained, not just node-wide views; and a ViewLogReq scoped to one shard
// is filtered by that shard instead of answered with everything.
func TestBareNodeServesWhatItInstalled(t *testing.T) {
	sn, tr, ask := viewLogSpy(t, 4)
	tr.Send(0, 1, proto.MUpdate{Shard: 2, View: view3(2)})
	waitEpochs(t, func() bool { return sn.ShardEpochs()[2] == 2 })

	if got, want := ask(proto.ViewLogReq{Shard: 2, Since: 1}), [][2]uint32{{2, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch for shard 2 served %v, want %v (the update it installed)", got, want)
	}
	if got := ask(proto.ViewLogReq{Shard: 3, Since: 1}); len(got) != 0 {
		t.Fatalf("fetch for shard 3 served shard 2's update: %v", got)
	}
	// Direct installs are retained too, and a node-wide view matches any scope.
	sn.InstallView(view3(3))
	const all = uint32(proto.AllShards)
	if got, want := ask(proto.ViewLogReq{Shard: 3, Since: 1}), [][2]uint32{{all, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch for shard 3 after a node-wide install served %v, want %v", got, want)
	}
	if got, want := ask(proto.ViewLogReq{Shard: proto.AllShards, Since: 2}), [][2]uint32{{all, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node-wide fetch since 2 served %v, want %v", got, want)
	}
}

// TestRolloutSupersededMidRoll: a newer view arriving while an older one's
// first install is in flight wins — the older roll stops after that shard,
// the newer one waits for it to land, and every shard lands on the newest
// epoch (skipped epochs are a fast-forward, not a gap), none left behind.
func TestRolloutSupersededMidRoll(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	t.Cleanup(l.Close)
	sn := l.Nodes[0]
	// No load anywhere: shard 0 rolls first, and its wedged engine keeps
	// that install in flight.
	release := wedge(t, sn, 0)

	sn.OnView(view3(2))
	waitEpochs(t, func() bool { return sn.HostStats().ShardInstalls == 1 })
	sn.OnView(view3(3))
	release()
	waitEpochs(t, func() bool {
		for _, e := range sn.ShardEpochs() {
			if e != 3 {
				return false
			}
		}
		return true
	})
	// One shard saw epoch 2 (the install in flight when v3 arrived); v3's
	// roll then covered all w.
	if st := sn.HostStats(); st.Views != 2 || st.Superseded != 1 || st.ShardInstalls != w+1 {
		t.Fatalf("stats %+v, want 2 views, 1 superseded, %d shard installs", st, w+1)
	}
}
