package sim

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// recEnv is a host env that records what reaches the wire.
type recEnv struct {
	now  time.Duration
	sent []any
}

func (e *recEnv) Now() time.Duration           { return e.now }
func (e *recEnv) Send(_ proto.NodeID, msg any) { e.sent = append(e.sent, msg) }
func (e *recEnv) Complete(proto.Completion)    {}

// TestShardedReplicaFlushesOnEveryEntryPoint: one simulator event is one
// egress window, so no exported method that can reach an engine returns with
// a message still staged but VALs waiting for company, and Tick returns with
// none at all. Each step stages an ACK behind the method's back first, so a
// method that forgot to flush fails its step even when its own turns send
// nothing.
func TestShardedReplicaFlushesOnEveryEntryPoint(t *testing.T) {
	env := &recEnv{}
	view := proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}}
	r := NewShardedReplica(0, view, env, ShardedReplicaConfig{Shards: 2, MLT: time.Millisecond})
	key := proto.Key(5)
	owner := proto.ShardOf(key, 2)
	steps := []struct {
		name string
		call func()
	}{
		{"Submit", func() { r.Submit(proto.ClientOp{ID: 1, Kind: proto.OpWrite, Key: key, Value: proto.Value("v")}) }},
		{"Deliver", func() {
			r.Deliver(1, proto.ShardMsg{Shard: owner, Msg: core.INV{Epoch: 1, Key: key + 2, TS: proto.TS{Version: 9, CID: 1}}})
		}},
		{"Tick", func() { env.now += 10 * time.Millisecond; r.Tick() }},
		{"OnViewChange", func() { r.OnViewChange(proto.View{Epoch: 2, Members: view.Members}) }},
		{"SetOperational", func() { r.SetOperational(false) }},
		{"SetNoLSC", func() { r.SetNoLSC(true) }},
	}
	for _, st := range steps {
		r.out[1].Send(2, core.ACK{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}})
		before := len(env.sent)
		st.call()
		for i, out := range r.out {
			flush := out.Flush
			if st.name == "Tick" {
				flush = out.FlushAll
			}
			if b, c, s := flush(); b+c+s != 0 {
				t.Fatalf("%s returned with messages staged on shard %d: a flush sent (%d,%d,%d)", st.name, i, b, c, s)
			}
		}
		if len(env.sent) == before {
			t.Fatalf("%s sent nothing", st.name)
		}
	}
}

// TestHeldVALLeavesBeforeInstall: a VAL waiting for company leaves before an
// install runs on its shard, under the epoch it was sent in, and the other
// shard's held VAL stays.
func TestHeldVALLeavesBeforeInstall(t *testing.T) {
	env := &recEnv{}
	view := proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}}
	r := NewShardedReplica(0, view, env, ShardedReplicaConfig{Shards: 2, MLT: time.Hour})
	held := core.VAL{Epoch: 1, Key: 1, TS: proto.TS{Version: 1}}
	for _, out := range r.out {
		out.Send(2, held)
		out.Flush()
	}
	if len(env.sent) != 0 {
		t.Fatalf("VALs alone left at Flush: %v", env.sent)
	}
	r.Deliver(1, proto.MUpdate{Shard: 1, View: proto.View{Epoch: 2, Members: view.Members}})
	if want := []any{proto.ShardMsg{Shard: 1, Msg: held}}; !reflect.DeepEqual(env.sent, want) || r.Engine(1).View().Epoch != 2 {
		t.Fatalf("install on shard 1 (epoch now %d) sent %v, want %v", r.Engine(1).View().Epoch, env.sent, want)
	}
	if b, c, s := r.out[0].FlushAll(); b+c+s != 1 {
		t.Fatalf("shard 0's held VAL: FlushAll sent (%d,%d,%d), want one single", b, c, s)
	}
}

// recReplica records the batches delivered to it.
type recReplica struct {
	id      proto.NodeID
	batches [][]proto.ShardMsg
}

func (r *recReplica) ID() proto.NodeID        { return r.id }
func (r *recReplica) Submit(proto.ClientOp)   {}
func (r *recReplica) Tick()                   {}
func (r *recReplica) OnViewChange(proto.View) {}
func (r *recReplica) Deliver(_ proto.NodeID, msg any) {
	if sb, ok := msg.(proto.ShardBatch); ok {
		r.batches = append(r.batches, sb.Msgs)
	}
}

// TestShardBatchInFlightSurvivesStageReuse: the network keeps a batch until
// it arrives, while the stager clears and refills its stage at the next
// flush. A batch must therefore arrive with the messages it was sent with,
// not with whatever the stage held later.
func TestShardBatchInFlightSurvivesStageReuse(t *testing.T) {
	c := New(Config{
		Nodes: 2,
		Factory: func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			if id == 1 {
				return &recReplica{id: id}
			}
			return NewShardedReplica(id, view, env, ShardedReplicaConfig{Shards: 1, MLT: time.Hour})
		},
		Net:       DefaultNet(),
		TickEvery: time.Hour,
		Seed:      1,
	})
	r := c.Replica(0).(*ShardedReplica)
	ack := func(k proto.Key) proto.ShardMsg {
		return proto.ShardMsg{Msg: core.ACK{Epoch: 1, Key: k, TS: proto.TS{Version: 1}}}
	}
	for _, k := range []proto.Key{1, 3} {
		r.out[0].Send(1, ack(k).Msg)
		r.out[0].Send(1, ack(k+1).Msg)
		r.flush() // the second flush refills the first batch's stage
	}
	c.Engine().RunUntil(time.Millisecond)
	got := c.Replica(1).(*recReplica).batches
	first := func(b []proto.ShardMsg) proto.Key {
		a, _ := b[0].Msg.(core.ACK) // a recycled entry is nil
		return a.Key
	}
	sort.Slice(got, func(i, j int) bool { return first(got[i]) < first(got[j]) })
	want := [][]proto.ShardMsg{{ack(1), ack(2)}, {ack(3), ack(4)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batches arrived as %v, want %v", got, want)
	}
	if n := c.Network(); n.Sent != 2 || n.Batches != 2 || n.Msgs != 4 {
		t.Fatalf("network counted %d frames, %d batches, %d messages; want 2, 2, 4", n.Sent, n.Batches, n.Msgs)
	}
}
