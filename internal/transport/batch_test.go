package transport

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// TestMeshShardBatchRoundTrip ships a coalesced batch through the TCP mesh
// and checks it arrives intact as one envelope.
func TestMeshShardBatchRoundTrip(t *testing.T) {
	a, err := NewMesh(0, map[proto.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewMesh(1, map[proto.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := map[proto.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.addrs, b.addrs = addrs, addrs

	got := make(chan any, 1)
	b.SetDeliver(1, func(from proto.NodeID, msg any) {
		// A delivered batch's slice is the serve loop's scratch, valid until
		// this callback returns (wings.Link.Serve): keep a copy.
		sb := msg.(proto.ShardBatch)
		got <- proto.ShardBatch{Msgs: append([]proto.ShardMsg(nil), sb.Msgs...)}
	})

	batch := proto.ShardBatch{Msgs: []proto.ShardMsg{
		{Shard: 0, Msg: core.ACK{Epoch: 1, Key: 7, TS: proto.TS{Version: 2, CID: 1}}},
		{Shard: 2, Msg: core.VAL{Epoch: 1, Key: 9, TS: proto.TS{Version: 3, CID: 1}}},
	}}
	a.Send(0, 1, batch)
	select {
	case m := <-got:
		if !reflect.DeepEqual(m, batch) {
			t.Fatalf("batch arrived mangled:\n got %#v\nwant %#v", m, batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never arrived")
	}
}
