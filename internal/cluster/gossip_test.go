package cluster

import (
	"sync/atomic"
	"testing"

	"repro/internal/proto"
)

// Epoch-gossip self-healing on the live runtime: announcements over the real
// transport, the laggard detecting itself behind, and the debounced
// newest-peer-preferred fast-forward — the loop the chaos harness exercises
// under faults, here against the goroutine/channel stack. Every node gossips:
// there is no setting, the destinations come from the newest view a node
// holds and the period from its MLT.

// allAt reports whether every shard of n is at epoch want.
func allAt(n *ShardedNode, want uint32) func() bool {
	return func() bool {
		for _, e := range n.ShardEpochs() {
			if e != want {
				return false
			}
		}
		return true
	}
}

// TestGossipOnByDefaultHealsLaggard: three nodes built with no gossip
// setting at all; epochs 2..5 reach node 0 only. Node 1 must learn of its
// gap from node 0's announcements and converge on every shard with no
// FastForward call anywhere.
func TestGossipOnByDefaultHealsLaggard(t *testing.T) {
	const w = 4
	l := NewShardedLocal(LocalConfig{N: 3}, w)
	defer l.Close()
	for e := uint32(2); e <= 5; e++ {
		l.Nodes[0].OnView(view3(e))
	}
	waitEpochs(t, allAt(l.Nodes[0], 5))
	waitEpochs(t, allAt(l.Nodes[1], 5))
	if st := l.Nodes[1].HostStats(); st.GossipFF == 0 || st.FFRequests != st.GossipFF {
		t.Fatalf("laggard stats %+v: want every fetch triggered by gossip", st)
	}
}

// TestGossipSelfHealsLaggard closes the loop through a view the announcer
// learns late: node 0 starts from a view without node 2, so it gossips to
// node 2 only once a newer view naming it arrives. Node 2 — which missed
// every decided view — must observe itself behind from those announcements
// alone, issue its own view-log fetch, and converge.
func TestGossipSelfHealsLaggard(t *testing.T) {
	const w = 4
	ids := []proto.NodeID{0, 1, 2}
	l := &ShardedLocal{Tr: NewChanTransport(ids)}
	defer l.Close()
	// Count node 0's announcements to node 2, and keep node 1's from it:
	// node 1 heals too, and must not become node 2's teacher.
	var toTwo atomic.Uint64
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool {
		if _, ok := msg.(proto.EpochGossip); ok && to == 2 {
			if from == 0 {
				toTwo.Add(1)
			}
			return from == 1
		}
		return false
	})
	for _, id := range ids {
		v := view3(1)
		if id == 0 {
			v.Members = []proto.NodeID{0, 1}
		}
		l.Nodes = append(l.Nodes, NewShardedNode(ShardedConfig{ID: id, View: v, Shards: w}, l.Tr))
	}
	a, c := l.Nodes[0], l.Nodes[2]
	waitEpochs(t, func() bool { return a.HostStats().GossipSent >= 4 })
	if n := toTwo.Load(); n != 0 {
		t.Fatalf("node 0 announced to node 2 %d times before any view named it", n)
	}

	// Epochs 2..5 reach only node 0; nodes 1 and 2 missed them all.
	for e := uint32(2); e <= 5; e++ {
		a.OnView(view3(e))
	}
	waitEpochs(t, allAt(a, 5))
	waitEpochs(t, allAt(c, 5))
	if toTwo.Load() == 0 {
		t.Fatal("node 2 converged, yet node 0 never announced to it")
	}
	st := c.HostStats()
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
