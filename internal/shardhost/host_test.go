package shardhost

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
)

// recDriver records every effect the host emits and models the engines'
// epochs: an Install moves the shard's epoch forward, never back — what
// core.Hermes.OnViewChange does. No goroutines anywhere: the host is driven
// with explicit virtual time.
type recDriver struct {
	epochs    []uint32
	delivers  []delivery
	installs  []install
	sends     []sent
	loadCalls int
}

type delivery struct {
	shard int
	from  proto.NodeID
	msg   any
}
type install struct {
	shard int
	epoch uint32
}
type sent struct {
	to  proto.NodeID
	msg any
}

func (d *recDriver) Deliver(shard int, from proto.NodeID, msg any) {
	d.delivers = append(d.delivers, delivery{shard, from, msg})
}
func (d *recDriver) Install(shard int, v proto.View) {
	d.installs = append(d.installs, install{shard, v.Epoch})
	if v.Epoch > d.epochs[shard] {
		d.epochs[shard] = v.Epoch
	}
}
func (d *recDriver) Epoch(shard int) uint32        { return d.epochs[shard] }
func (d *recDriver) Load(int) uint64               { d.loadCalls++; return 0 }
func (d *recDriver) Send(to proto.NodeID, msg any) { d.sends = append(d.sends, sent{to, msg}) }

// newHost builds node 0's host over w shards at epoch 1 of view(1), with no
// stagger and a 20ms MLT: gossip every 2.5ms, a 10ms fast-forward debounce.
func newHost(w int) (*Host, *recDriver) {
	return newHostIn(w, view(1), 20*time.Millisecond)
}

// newHostIn is newHost starting from v with engines whose MLT is mlt.
func newHostIn(w int, v proto.View, mlt time.Duration) (*Host, *recDriver) {
	d := &recDriver{epochs: make([]uint32, w)}
	for i := range d.epochs {
		d.epochs[i] = 1
	}
	return New(0, w, v, mlt, d), d
}

func view(e uint32) proto.View { return proto.View{Epoch: e, Members: []proto.NodeID{0, 1, 2}} }

// keyOn returns a key shard owns on a w-shard node.
func keyOn(w int, shard uint16) proto.Key {
	for k := proto.Key(1); ; k++ {
		if proto.ShardOf(k, w) == shard {
			return k
		}
	}
}

// TestRoute covers the data plane: tagged, mis-tagged and out-of-range
// ShardMsgs, ShardBatch fan-out, keyless instance-scoped traffic, untagged
// traffic being dropped at every W, and control messages being declined.
func TestRoute(t *testing.T) {
	const w = 4
	ack := func(shard uint16) core.ACK { return core.ACK{Epoch: 1, Key: keyOn(w, shard), TS: proto.TS{Version: 1}} }
	val := func(shard uint16) core.VAL { return core.VAL{Epoch: 1, Key: keyOn(w, shard), TS: proto.TS{Version: 1}} }
	cases := []struct {
		name    string
		w       int
		msg     any
		routed  bool
		deliver []delivery
	}{
		{"tagged to its owner", w, proto.ShardMsg{Shard: 2, Msg: ack(2)}, true,
			[]delivery{{2, 7, ack(2)}}},
		{"mis-tagged (peer hashes with another W) drops", w, proto.ShardMsg{Shard: 0, Msg: ack(2)}, true, nil},
		{"tag out of range drops", w, proto.ShardMsg{Shard: w, Msg: core.MCheck{}}, true, nil},
		{"keyless tagged traffic keeps the sender's tag", w, proto.ShardMsg{Shard: 3, Msg: core.MCheck{Epoch: 1}}, true,
			[]delivery{{3, 7, core.MCheck{Epoch: 1}}}},
		{"batch fans out, mis-owned entry drops", w, proto.ShardBatch{Msgs: []proto.ShardMsg{
			{Shard: 1, Msg: ack(1)}, {Shard: 3, Msg: val(3)}, {Shard: 0, Msg: ack(2)},
		}}, true, []delivery{{1, 7, ack(1)}, {3, 7, val(3)}}},
		{"untagged keyed drops", w, val(2), true, nil},
		{"untagged keyless drops", w, core.MCheck{Epoch: 1}, true, nil},
		{"untagged client request drops", w, proto.ClientReq{Seq: 1, Op: proto.OpRead, Key: 3}, true, nil},
		{"W=1 node drops untagged too", 1, ack(3), true, nil},
		{"W=1 node still unwraps a tag-0 envelope", 1, proto.ShardMsg{Shard: 0, Msg: ack(3)}, true, []delivery{{0, 7, ack(3)}}},
		{"MUpdate is control", w, proto.MUpdate{Shard: 0, View: view(2)}, false, nil},
		{"ViewLogReq is control", w, proto.ViewLogReq{}, false, nil},
		{"ViewLogResp is control", w, proto.ViewLogResp{}, false, nil},
		{"EpochGossip is control", w, proto.EpochGossip{}, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &recDriver{}
			if got := Route(tc.w, d, 7, tc.msg); got != tc.routed {
				t.Fatalf("Route = %v, want %v", got, tc.routed)
			}
			if !reflect.DeepEqual(d.delivers, tc.deliver) {
				t.Fatalf("delivered %+v, want %+v", d.delivers, tc.deliver)
			}
		})
	}
}

// nopDriver discards deliveries: what is left is Route's own cost.
type nopDriver struct{ recDriver }

func (*nopDriver) Deliver(int, proto.NodeID, any) {}

// TestRouteAllocatesNothing guards the live per-message path: Route runs on
// transport pump goroutines for every protocol message, so routing an
// already-boxed message — tagged or batched — or dropping a bare one must not
// allocate.
func TestRouteAllocatesNothing(t *testing.T) {
	const w = 4
	var d Driver = &nopDriver{}
	ack := core.ACK{Epoch: 1, Key: keyOn(w, 2), TS: proto.TS{Version: 1}}
	for name, msg := range map[string]any{
		"bare":   ack,
		"tagged": proto.ShardMsg{Shard: 2, Msg: ack},
		"batch":  proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 2, Msg: ack}, {Shard: 2, Msg: ack}}},
	} {
		if n := testing.AllocsPerRun(100, func() { Route(w, d, 1, msg) }); n != 0 {
			t.Errorf("%s: Route allocates %.0f times per message, want 0", name, n)
		}
	}
}

// TestRouteMisTaggedReleasesOwner: a dropped INV — mis-tagged, or untagged —
// spends the frame reference it carries, like every other drop path (the
// simulator's copy of this code used to skip that).
func TestRouteMisTaggedReleasesOwner(t *testing.T) {
	const w = 4
	for name, wrap := range map[string]func(core.INV) any{
		"mis-tagged": func(inv core.INV) any { return proto.ShardMsg{Shard: 0, Msg: inv} },
		"untagged":   func(inv core.INV) any { return inv },
	} {
		buf := refbuf.NewPool().Get(8)
		buf.Retain() // one reference for the INV, one kept to observe the count
		inv := core.INV{Epoch: 1, Key: keyOn(w, 2), Value: buf.Bytes(), Owner: buf}
		d := &recDriver{}
		Route(w, d, 1, wrap(inv))
		if len(d.delivers) != 0 {
			t.Fatalf("%s INV delivered: %+v", name, d.delivers)
		}
		if got := buf.Refs(); got != 1 {
			t.Fatalf("%s: frame refs after the drop = %d, want 1 (the INV's reference spent)", name, got)
		}
		buf.Release()
	}
}

// TestMUpdateAddressing: an m-update installs on exactly the shards it
// addresses — one shard, AllShards, nothing when out of range — at W=4 and on
// a W=1 node (its own shard 0). Dispatch installs a shard-scoped update
// itself; a node-wide one goes to the roll, and each Step performs one
// install of it — every shard at once only for a view that fences the node.
func TestMUpdateAddressing(t *testing.T) {
	fence := proto.View{Epoch: 2, Members: []proto.NodeID{1, 2}}
	cases := []struct {
		name   string
		w      int
		m      proto.MUpdate
		direct []install   // performed by Dispatch
		steps  [][]install // performed by each Step after it
	}{
		{"one shard", 4, proto.MUpdate{Shard: 3, View: view(2)}, []install{{3, 2}}, nil},
		{"all shards", 4, proto.MUpdate{Shard: proto.AllShards, View: view(2)},
			nil, [][]install{{{0, 2}}, {{1, 2}}, {{2, 2}}, {{3, 2}}}},
		{"out of range drops", 4, proto.MUpdate{Shard: 4, View: view(2)}, nil, nil},
		{"W=1: shard 0", 1, proto.MUpdate{Shard: 0, View: view(2)}, []install{{0, 2}}, nil},
		{"W=1: all shards", 1, proto.MUpdate{Shard: proto.AllShards, View: view(2)}, nil, [][]install{{{0, 2}}}},
		{"W=1: shard 1 is not ours", 1, proto.MUpdate{Shard: 1, View: view(2)}, nil, nil},
		{"node-wide fence installs every shard in one step", 4, proto.MUpdate{Shard: proto.AllShards, View: fence},
			nil, [][]install{{{0, 2}, {1, 2}, {2, 2}, {3, 2}}}},
		{"shard-scoped bypasses the roll", 4, proto.MUpdate{Shard: 1, View: view(2)}, []install{{1, 2}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, d := newHost(tc.w)
			h.Dispatch(1, tc.m, 0)
			if !reflect.DeepEqual(d.installs, tc.direct) {
				t.Errorf("Dispatch installed %+v, want %+v", d.installs, tc.direct)
			}
			var steps [][]install
			for h.Rolling() {
				d.installs = nil
				h.Step(0)
				steps = append(steps, d.installs)
			}
			if !reflect.DeepEqual(steps, tc.steps) {
				t.Errorf("steps installed %+v, want %+v", steps, tc.steps)
			}
		})
	}
}

// TestHostStep drives the control plane's clock by hand: the roll's installs
// spaced by Stagger, gossip announced every MLT/8 to the members, then the
// learners, of the newest view held, self skipped, and a fetched view log
// rolling rather than fanning out.
func TestHostStep(t *testing.T) {
	const us = time.Microsecond
	t.Run("stagger spacing", func(t *testing.T) {
		h, d := newHost(4)
		h.Stagger = 150 * us
		h.Dispatch(1, proto.MUpdate{Shard: proto.AllShards, View: view(2)}, 0)
		var at []time.Duration
		for now := time.Duration(0); now <= 600*us; now += 50 * us {
			n := len(d.installs)
			h.Step(now)
			if len(d.installs) > n {
				at = append(at, now)
			}
		}
		if want := []time.Duration{0, 150 * us, 300 * us, 450 * us}; !reflect.DeepEqual(at, want) {
			t.Fatalf("installs at %v, want %v", at, want)
		}
		if h.Rolling() || len(d.installs) != 4 {
			t.Fatalf("rolling=%v after %+v, want the roll done in 4 installs", h.Rolling(), d.installs)
		}
	})
	t.Run("gossip cadence and destinations", func(t *testing.T) {
		// A 2ms MLT gossips every 250us; self (0) is among the members.
		h, d := newHostIn(2, proto.View{Epoch: 1, Members: []proto.NodeID{1, 0, 2}, Learners: []proto.NodeID{5}}, 2*time.Millisecond)
		d.epochs = []uint32{3, 2}
		gossip := func(to ...proto.NodeID) (out []sent) {
			for _, p := range to {
				out = append(out, sent{p, proto.EpochGossip{Epochs: []uint32{3, 2}}})
			}
			return out
		}
		for now := time.Duration(0); now < 600*us; now += 100 * us {
			h.Step(now)
		}
		// Steps at 0, 100, ..., 500: announcements at 0 and at 300, the first
		// step past 250; the next falls due at 550.
		if want := append(gossip(1, 2, 5), gossip(1, 2, 5)...); !reflect.DeepEqual(d.sends, want) {
			t.Fatalf("sends %+v, want %+v", d.sends, want)
		}
		if got := h.Stats().GossipSent; got != 6 {
			t.Fatalf("GossipSent = %d, want 6", got)
		}
		// A newer recorded view redirects the gossip; an older one does not.
		h.Record(proto.MUpdate{Shard: proto.AllShards, View: proto.View{Epoch: 4, Members: []proto.NodeID{0, 3}, Learners: []proto.NodeID{2}}})
		h.Record(proto.MUpdate{Shard: 1, View: view(3)})
		d.sends = nil
		h.Step(600 * us)
		if want := gossip(3, 2); !reflect.DeepEqual(d.sends, want) {
			t.Fatalf("after a newer view: sends %+v, want %+v", d.sends, want)
		}
	})
	t.Run("view-log replay rolls", func(t *testing.T) {
		h, d := newHost(4)
		h.Dispatch(2, proto.ViewLogResp{Updates: []proto.MUpdate{
			{Shard: proto.AllShards, View: view(3)},
			{Shard: proto.AllShards, View: view(4)},
		}}, 0)
		if len(d.installs) != 0 || !h.Rolling() {
			t.Fatalf("replay installed %+v (rolling=%v), want it queued for the roll", d.installs, h.Rolling())
		}
		for h.Rolling() {
			h.Step(0)
		}
		if want := []install{{0, 4}, {1, 4}, {2, 4}, {3, 4}}; !reflect.DeepEqual(d.installs, want) {
			t.Fatalf("rolled %+v, want %+v (the newest view, one shard a step)", d.installs, want)
		}
		st := h.Stats()
		if st.FFApplied != 2 || st.Views != 2 || st.Superseded != 1 || st.ShardInstalls != 4 {
			t.Fatalf("stats %+v, want 2 applied, 2 views, 1 superseded, 4 installs", st)
		}
	})
}

// TestIdleStepIsFree: a Step with no view rolling and no announcement due
// allocates nothing and reads no load. The simulator steps every replica
// every tick, and asking an idle roller there cost 12 % more allocations.
func TestIdleStepIsFree(t *testing.T) {
	h, d := newHost(4)
	h.Step(0) // the first announcement
	d.loadCalls = 0
	if n := testing.AllocsPerRun(100, func() { h.Step(time.Millisecond) }); n != 0 {
		t.Errorf("idle Step allocates %.0f times, want 0", n)
	}
	if d.loadCalls != 0 {
		t.Errorf("idle Step read %d loads, want 0", d.loadCalls)
	}
}

// served asks h for its log and returns the (shard, epoch) pairs answered.
func served(t *testing.T, h *Host, d *recDriver, req proto.ViewLogReq) [][2]uint32 {
	t.Helper()
	d.sends = nil
	h.Dispatch(9, req, 0)
	if len(d.sends) != 1 || d.sends[0].to != 9 {
		t.Fatalf("ViewLogReq produced sends %+v, want exactly one reply to the requester", d.sends)
	}
	resp, ok := d.sends[0].msg.(proto.ViewLogResp)
	if !ok {
		t.Fatalf("reply is %T, want ViewLogResp", d.sends[0].msg)
	}
	var out [][2]uint32
	for _, mu := range resp.Updates {
		out = append(out, [2]uint32{uint32(mu.Shard), mu.View.Epoch})
	}
	return out
}

// TestViewLog: every update seen is retained once (dedup by shard+epoch),
// served filtered by Since and by the requested shard scope, always answered
// even when empty, and bounded at ViewLogCap with the oldest entries evicted.
func TestViewLog(t *testing.T) {
	const all = uint32(proto.AllShards)
	h, d := newHost(4)
	if got := served(t, h, d, proto.ViewLogReq{Shard: proto.AllShards}); got != nil {
		t.Fatalf("empty log served %v", got)
	}
	h.Dispatch(1, proto.MUpdate{Shard: 1, View: view(2)}, 0)
	h.Dispatch(1, proto.MUpdate{Shard: 1, View: view(2)}, 0) // wire duplicate
	h.Dispatch(1, proto.MUpdate{Shard: 2, View: view(3)}, 0)
	h.Dispatch(1, proto.MUpdate{Shard: proto.AllShards, View: view(4)}, 0)
	h.Record(proto.MUpdate{Shard: 9, View: view(5)}) // a direct install the runtime recorded

	for _, tc := range []struct {
		name string
		req  proto.ViewLogReq
		want [][2]uint32
	}{
		{"all shards, everything", proto.ViewLogReq{Shard: proto.AllShards}, [][2]uint32{{1, 2}, {2, 3}, {all, 4}, {9, 5}}},
		{"all shards, since 2", proto.ViewLogReq{Shard: proto.AllShards, Since: 2}, [][2]uint32{{2, 3}, {all, 4}, {9, 5}}},
		{"shard 1: its own plus node-wide", proto.ViewLogReq{Shard: 1}, [][2]uint32{{1, 2}, {all, 4}}},
		{"shard 2 since 3: node-wide only", proto.ViewLogReq{Shard: 2, Since: 3}, [][2]uint32{{all, 4}}},
		{"shard 0: node-wide only", proto.ViewLogReq{Shard: 0}, [][2]uint32{{all, 4}}},
		{"caught up: empty but answered", proto.ViewLogReq{Shard: proto.AllShards, Since: 5}, nil},
	} {
		if got := served(t, h, d, tc.req); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: served %v, want %v", tc.name, got, tc.want)
		}
	}
	if got, want := h.Stats().FFServed, uint64(4+3+2+1+1); got != want {
		t.Errorf("FFServed = %d, want %d", got, want)
	}

	// Overflow: ViewLogCap+6 distinct epochs on one shard keep the newest cap.
	h, d = newHost(4)
	for e := uint32(2); e < 2+ViewLogCap+6; e++ {
		h.Dispatch(1, proto.MUpdate{Shard: 0, View: view(e)}, 0)
	}
	got := served(t, h, d, proto.ViewLogReq{Shard: 0})
	if len(got) != ViewLogCap || got[0][1] != 8 || got[len(got)-1][1] != ViewLogCap+7 {
		t.Fatalf("after overflow: %d entries spanning epochs %d..%d, want %d spanning 8..%d",
			len(got), got[0][1], got[len(got)-1][1], ViewLogCap, ViewLogCap+7)
	}
}

// TestViewLogRespReplay: a fetched gap replays through the install path
// (node-wide entries through the roll), is retained for the next laggard, and
// FFApplied counts only entries that moved an addressed shard's epoch
// forward.
func TestViewLogRespReplay(t *testing.T) {
	h, d := newHost(4)
	d.epochs = []uint32{3, 1, 1, 1}
	h.Dispatch(2, proto.ViewLogResp{Updates: []proto.MUpdate{
		{Shard: 0, View: view(2)},               // stale for shard 0: installed (idempotent) but not counted
		{Shard: 1, View: view(2)},               // advances shard 1
		{Shard: proto.AllShards, View: view(3)}, // advances shards 1..3 once rolled
		{Shard: 7, View: view(9)},               // out of range
	}}, 0)
	for h.Rolling() {
		h.Step(0)
	}
	// Redelivery: nobody is behind anymore.
	h.Dispatch(2, proto.ViewLogResp{Updates: []proto.MUpdate{{Shard: proto.AllShards, View: view(3)}}}, 0)
	if got := h.Stats().FFApplied; got != 2 {
		t.Errorf("FFApplied = %d, want 2", got)
	}
	if want := []uint32{3, 3, 3, 3}; !reflect.DeepEqual(d.epochs, want) {
		t.Errorf("epochs %v, want %v", d.epochs, want)
	}
	if got := served(t, h, d, proto.ViewLogReq{Shard: 1}); len(got) != 2 {
		t.Errorf("replayed entries not retained for shard 1: %v", got)
	}
}

// fetches returns the ViewLogReqs the driver saw, as (peer, since) pairs.
func fetches(d *recDriver) [][2]uint32 {
	var out [][2]uint32
	for _, s := range d.sends {
		if req, ok := s.msg.(proto.ViewLogReq); ok {
			out = append(out, [2]uint32{uint32(s.to), req.Since})
		}
	}
	return out
}

// TestObserveGossip covers behind-detection: ahead on one shard, equal,
// behind us, and W-mismatched vectors (shorter, longer) compared by maximum.
func TestObserveGossip(t *testing.T) {
	cases := []struct {
		name   string
		local  []uint32
		peer   []uint32
		behind bool
		since  uint32
	}{
		{"peer ahead on one shard", []uint32{3, 3, 2, 3}, []uint32{3, 3, 3, 3}, true, 2},
		{"equal", []uint32{3, 3, 3, 3}, []uint32{3, 3, 3, 3}, false, 0},
		{"peer behind", []uint32{3, 3, 3, 3}, []uint32{2, 2, 3, 1}, false, 0},
		{"peer ahead on one, behind on another", []uint32{3, 1, 3, 3}, []uint32{1, 2, 1, 1}, true, 1},
		{"shorter vector (W=1 peer) ahead by max", []uint32{3, 3, 3, 3}, []uint32{5}, true, 3},
		{"shorter vector not ahead", []uint32{3, 3, 3, 3}, []uint32{3}, false, 0},
		{"longer vector ahead only beyond our W", []uint32{3, 3}, []uint32{3, 3, 3, 6}, true, 3},
		{"empty vector", []uint32{3, 3}, nil, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, d := newHost(len(tc.local))
			d.epochs = tc.local
			h.ObserveGossip(5, tc.peer, time.Second)
			st := h.Stats()
			if st.GossipRecv != 1 {
				t.Errorf("GossipRecv = %d, want 1", st.GossipRecv)
			}
			if tc.behind {
				if st.GossipBehind != 1 || st.GossipFF != 1 || st.FFRequests != 1 {
					t.Fatalf("stats %+v, want one behind-observation firing one fetch", st)
				}
				if got, want := fetches(d), [][2]uint32{{5, tc.since}}; !reflect.DeepEqual(got, want) {
					t.Fatalf("fetches %v, want %v (peer, min local epoch)", got, want)
				}
			} else if st.GossipBehind != 0 || len(d.sends) != 0 {
				t.Fatalf("not behind, yet stats %+v sends %+v", st, d.sends)
			}
		})
	}
}

// TestGossipDebounceNewestPeerPreferred pins the observer's rate-limit
// rules: the first observation in an idle window fires immediately; inside
// the window further observations only raise the stored candidate; once the
// window expires the fetch goes to the highest-epoch candidate seen — not to
// whichever peer happened to trigger it. Wire EpochGossip frames and direct
// ObserveGossip calls share the one observer.
func TestGossipDebounceNewestPeerPreferred(t *testing.T) {
	const ms = time.Millisecond
	h, d := newHost(4) // debounce 4 x 2.5ms
	two, seven := []uint32{2, 2, 2, 2}, []uint32{7, 7, 7, 7}

	h.ObserveGossip(1, two, 100*ms) // idle: fires at peer 1
	if got, want := fetches(d), [][2]uint32{{1, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first observation: fetches %v, want %v", got, want)
	}
	// Inside the window: two more peers, no second fetch, newest remembered.
	h.Dispatch(2, proto.EpochGossip{Epochs: seven}, 103*ms)
	h.ObserveGossip(1, two, 106*ms)
	if got := fetches(d); len(got) != 1 {
		t.Fatalf("debounce window leaked: fetches %v", got)
	}
	if st := h.Stats(); st.GossipBehind != 3 || st.GossipFF != 1 {
		t.Fatalf("stats %+v, want 3 behind-observations / 1 fetch", st)
	}
	// Window over: peer 1's low vector triggers, the fetch goes to peer 2.
	h.ObserveGossip(1, two, 110*ms)
	if got, want := fetches(d), [][2]uint32{{1, 1}, {2, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the window: fetches %v, want %v (newest candidate wins)", got, want)
	}
	// The candidate was consumed: the next window starts from scratch.
	h.ObserveGossip(1, two, 125*ms)
	if got, want := fetches(d), [][2]uint32{{1, 1}, {2, 1}, {1, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh window: fetches %v, want %v", got, want)
	}
	// A lying vector wastes requests, nothing more: no install ever happened.
	if len(d.installs) != 0 {
		t.Fatalf("gossip alone installed %+v", d.installs)
	}
}
