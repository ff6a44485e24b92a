// Shadowjoin: adding a replica to a running group (paper §3.4 "Recovery").
// The new node joins as a shadow replica (learner): it follows all writes
// but serves no clients, reconstructs the datastore by reading chunks from
// the members, and is promoted to a serving member once caught up.
//
//	go run ./examples/shadowjoin
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	c := sim.New(sim.Config{
		Nodes: 4, // 3 serving members + node 3 held in reserve
		Factory: func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			cfg := core.Config{ID: id, View: view, Env: env, MLT: 2 * time.Millisecond}
			if id == 3 {
				cfg.Learner = true
			}
			return core.New(cfg)
		},
		Net:  sim.DefaultNet(),
		Seed: 7,
	})
	// Initial membership: {0,1,2} serving; node 3 not yet in the group.
	v1 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	c.InstallView(v1)

	// Seed the datastore under write traffic.
	res := c.RunWorkload(sim.WorkloadParams{
		Workload:        workload.Config{Keys: 2048, WriteRatio: 0.3, ValueSize: 32},
		SessionsPerNode: 2,
		Duration:        5 * time.Millisecond,
	})
	fmt.Printf("seeded datastore: %d ops done, members have %d keys\n",
		res.Ops, c.Replica(0).(*core.Hermes).Store().Len())

	// m-update: node 3 joins as a learner. It starts chunk transfer while
	// new writes reach it through INVs (it is in every write set).
	v2 := proto.View{Epoch: 3, Members: []proto.NodeID{0, 1, 2}, Learners: []proto.NodeID{3}}
	c.InstallView(v2)
	learner := c.Replica(3).(*core.Hermes)

	// Keep writing while the learner catches up.
	c.RunWorkload(sim.WorkloadParams{
		Workload:        workload.Config{Keys: 2048, WriteRatio: 0.3, ValueSize: 32},
		SessionsPerNode: 2,
		Duration:        10 * time.Millisecond,
	})
	for !learner.CaughtUp() {
		c.Engine().RunUntil(c.Engine().Now() + time.Millisecond)
	}
	fmt.Printf("learner caught up with %d keys\n", learner.Store().Len())

	// Promote: node 3 becomes a serving member.
	v3 := proto.View{Epoch: 4, Members: []proto.NodeID{0, 1, 2, 3}}
	c.InstallView(v3)

	// Verify: the promoted replica serves a linearizable local read and its
	// records agree with the group's.
	var got *proto.Completion
	c.Submit(3, proto.ClientOp{ID: 1 << 50, Kind: proto.OpRead, Key: 42},
		func(comp proto.Completion) { got = &comp })
	c.Engine().RunUntil(c.Engine().Now() + 2*time.Millisecond)
	if got == nil || got.Status != proto.OK {
		fmt.Println("promoted replica failed to serve!")
		os.Exit(1)
	}
	fmt.Printf("promoted replica serves reads (key 42 -> %d bytes)\n", len(got.Value))

	// Cross-check every key of member 0 against the promoted replica: a key
	// it lacks, or holds at another timestamp or value, is a mismatch.
	mismatches, checked := 0, 0
	c.Replica(0).(*core.Hermes).Store().Range(func(k proto.Key, sl *kvs.Slot) bool {
		checked++
		e, _ := sl.Load()
		if le, ok := learner.Store().Get(k); !ok || le.TS != e.TS || !bytes.Equal(le.Value, e.Value) {
			mismatches++
		}
		return true
	})
	fmt.Printf("checked %d keys against a member: %d mismatches\n", checked, mismatches)
	if mismatches > 0 {
		os.Exit(1)
	}
}
