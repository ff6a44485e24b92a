package cluster

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// Epoch-gossip self-healing on the live runtime: announcements over the real
// transport, the laggard detecting itself behind, and the debounced
// newest-peer-preferred fast-forward — the loop the chaos harness exercises
// under faults, here pinned deterministically against the goroutine/channel
// stack.

// TestGossipSelfHealsLaggard closes the loop end to end with no operator and
// no test backdoor: node 0's controller announces its per-shard epoch vector
// on a timer; node 1's controller — which missed every decided view — must
// observe itself behind from the announcements alone, issue its own view-log
// fetch, and converge.
func TestGossipSelfHealsLaggard(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	a, b := l.Nodes[0], l.Nodes[1]
	rcA := NewRolloutController(a, RolloutConfig{
		GossipEvery: 5 * time.Millisecond,
		GossipPeers: []proto.NodeID{0, 1, 2},
	})
	defer rcA.Close()
	rcB := NewRolloutController(b, RolloutConfig{})
	defer rcB.Close()

	// Epochs 2..5 reach only node 0; node 1's agent missed them all.
	for e := uint32(2); e <= 5; e++ {
		rcA.OnView(view3(e))
	}
	waitEpochs(t, func() bool {
		for _, e := range a.ShardEpochs() {
			if e != 5 {
				return false
			}
		}
		return true
	})

	// Node 1 heals itself: no FastForward call anywhere in this test.
	waitEpochs(t, func() bool {
		for _, e := range b.ShardEpochs() {
			if e != 5 {
				return false
			}
		}
		return true
	})
	if st := rcA.Stats(); st.GossipSent == 0 {
		t.Fatalf("announcer sent no gossip: %+v", st)
	}
	st := b.HostStats()
	if st.GossipRecv == 0 || st.GossipBehind == 0 {
		t.Fatalf("laggard observed nothing: %+v", st)
	}
	if st.GossipFF == 0 {
		t.Fatalf("laggard never fast-forwarded itself: %+v", st)
	}
	if st.FFApplied < 4 {
		t.Fatalf("ffApplied = %d, want >= 4 (epochs 2..5)", st.FFApplied)
	}
}

// TestGossipObserveFetchesOverTransport is the live half of the observer
// (its debounce and newest-peer rules are pinned goroutine-free by
// shardhost's TestGossipDebounceNewestPeerPreferred): a vector handed to
// ObserveGossip — the membership-heartbeat piggyback path — makes the node
// fetch the peer's view log over the real transport and converge, and the
// controller's FFDebounce reaches the node's observer, so a second
// observation inside the window issues no second fetch.
func TestGossipObserveFetchesOverTransport(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	rc0 := NewRolloutController(l.Nodes[0], RolloutConfig{FFDebounce: time.Hour})
	defer rc0.Close()
	rc2 := NewRolloutController(l.Nodes[2], RolloutConfig{})
	defer rc2.Close()
	for e := uint32(2); e <= 7; e++ {
		rc2.OnView(view3(e))
	}
	allAt := func(n *ShardedNode, want uint32) func() bool {
		return func() bool {
			for _, e := range n.ShardEpochs() {
				if e != want {
					return false
				}
			}
			return true
		}
	}
	waitEpochs(t, allAt(l.Nodes[2], 7))

	l.Nodes[0].ObserveGossip(2, []uint32{7, 7, 7, 7})
	waitEpochs(t, allAt(l.Nodes[0], 7))
	if st := l.Nodes[0].HostStats(); st.GossipFF != 1 || st.FFRequests != 1 || st.FFApplied != 6 {
		t.Fatalf("stats %+v, want 1 fetch / 6 applied (epochs 2..7)", st)
	}
	l.Nodes[0].ObserveGossip(2, []uint32{9, 9, 9, 9})
	if st := l.Nodes[0].HostStats(); st.GossipBehind != 2 || st.GossipFF != 1 {
		t.Fatalf("stats %+v, want the second observation debounced (2 behind, still 1 fetch)", st)
	}
}
