package shardhost

import (
	"reflect"
	"testing"

	"repro/internal/proto"
)

// TestRoller pins the rollout's rules on plain epochs and loads, with no
// goroutines: each case accepts views, asks for installs as a runtime would
// (applying each one to the modeled shard epochs), and checks the exact
// install sequence and counters. Node 0 is self; a node-wide install is
// reported on shard AllShards.
func TestRoller(t *testing.T) {
	const all = int(proto.AllShards)
	removal := proto.View{Epoch: 2, Members: []proto.NodeID{1, 2}}
	asLearner := proto.View{Epoch: 2, Members: []proto.NodeID{1, 2}, Learners: []proto.NodeID{0}}
	type step struct {
		accept []proto.View // accepted, in order, before this step's installs
		epochs []uint32     // if set, the shard epochs other installs left (a shard-scoped fetch)
		loads  []uint64     // shard loads passed to Next (nil: all zero)
		n      int          // Next calls to make; 0 runs the roll dry
	}
	cases := []struct {
		name   string
		epochs []uint32 // shard epochs at construction, where loads are zero
		steps  []step
		want   []install
		stats  RollerStats
	}{
		{"floor seeded at construction: a stale removal view is a redelivery, not a fence",
			[]uint32{3, 3, 3, 3}, []step{{accept: []proto.View{removal}}},
			nil, RollerStats{Redelivered: 1}},
		{"duplicate is redelivered", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2), view(2)}}},
			[]install{{0, 2}, {1, 2}, {2, 2}, {3, 2}},
			RollerStats{Views: 1, Redelivered: 1, ShardInstalls: 4}},
		{"supersede mid-roll", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2)}, n: 1}, {accept: []proto.View{view(3)}}},
			[]install{{0, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 3}},
			RollerStats{Views: 2, Superseded: 1, ShardInstalls: 5}},
		{"newest queued view wins", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2), view(3)}}},
			[]install{{0, 3}, {1, 3}, {2, 3}, {3, 3}},
			RollerStats{Views: 2, Superseded: 1, ShardInstalls: 4}},
		{"fence installs node-wide, a re-add rolls again", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{removal}}, {accept: []proto.View{view(3)}}},
			[]install{{all, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 3}},
			RollerStats{Views: 2, NodeWideFallbacks: 1, ShardInstalls: 4}},
		{"a learner is not fenced", []uint32{1, 1},
			[]step{{accept: []proto.View{asLearner}}},
			[]install{{0, 2}, {1, 2}},
			RollerStats{Views: 1, ShardInstalls: 2}},
		{"skip a shard already there", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2)}, epochs: []uint32{1, 2, 1, 1}}},
			[]install{{0, 2}, {2, 2}, {3, 2}},
			RollerStats{Views: 1, ShardInstalls: 3, SkippedInstalls: 1}},
		{"coolest first", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2)}, loads: []uint64{40, 10, 30, 0}}},
			[]install{{3, 2}, {1, 2}, {2, 2}, {0, 2}},
			RollerStats{Views: 1, ShardInstalls: 4}},
		{"load ties by index", []uint32{1, 1, 1, 1},
			[]step{{accept: []proto.View{view(2)}, loads: []uint64{5, 5, 1, 5}}},
			[]install{{2, 2}, {0, 2}, {1, 2}, {3, 2}},
			RollerStats{Views: 1, ShardInstalls: 4}},
		{"load since the previous roll, not cumulative", []uint32{1, 1, 1, 1},
			[]step{
				{accept: []proto.View{view(2)}, loads: []uint64{0, 50, 0, 0}},
				{accept: []proto.View{view(3)}, loads: []uint64{10, 50, 5, 0}},
			},
			[]install{{0, 2}, {2, 2}, {3, 2}, {1, 2}, {1, 3}, {3, 3}, {2, 3}, {0, 3}},
			RollerStats{Views: 2, ShardInstalls: 8}},
		{"no shards, nothing to roll", nil,
			[]step{{accept: []proto.View{view(2)}}},
			nil, RollerStats{Views: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			epochs := append([]uint32(nil), tc.epochs...)
			r := NewRoller(0, epochs, make([]uint64, len(epochs)))
			var got []install
			for _, st := range tc.steps {
				if st.epochs != nil {
					copy(epochs, st.epochs)
				}
				for _, v := range st.accept {
					r.Accept(v)
				}
				loads := st.loads
				if loads == nil {
					loads = make([]uint64, len(epochs))
				}
				for i := 0; st.n == 0 || i < st.n; i++ {
					m, ok := r.Next(epochs, loads)
					if !ok {
						break
					}
					got = append(got, install{int(m.Shard), m.View.Epoch})
					for s := range epochs {
						if (m.Shard == proto.AllShards || int(m.Shard) == s) && m.View.Epoch > epochs[s] {
							epochs[s] = m.View.Epoch
						}
					}
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("installs %v, want %v", got, tc.want)
			}
			if st := r.Stats(); st != tc.stats {
				t.Errorf("stats %+v, want %+v", st, tc.stats)
			}
			if r.Rolling() {
				t.Errorf("roll still under way after Next ran dry")
			}
		})
	}
}
