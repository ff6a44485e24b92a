package transport

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/wings"
)

// starvedLinkConfig is a tiny send window with explicit credit updates
// DISABLED: the only way a sender can keep moving is implicit repayment —
// responses crediting the link that spent on the requests.
func starvedLinkConfig() wings.LinkConfig {
	return wings.LinkConfig{Credits: 4, ExplicitEvery: 0, IsResponse: isResponse}
}

// echoMeshPair stands up meshes A and B where B answers every INV with an
// ACK for the same key, and A collects the ACKs on ackCh.
func echoMeshPair(t *testing.T) (a, b *Mesh, ackCh chan core.ACK, done func()) {
	t.Helper()
	a, err := NewMesh(0, map[proto.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewMesh(1, map[proto.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[proto.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.addrs, b.addrs = addrs, addrs
	a.cfg, b.cfg = starvedLinkConfig(), starvedLinkConfig()

	ackCh = make(chan core.ACK, 1024)
	a.SetDeliver(0, func(from proto.NodeID, msg any) {
		if ack, ok := msg.(core.ACK); ok {
			ackCh <- ack
		}
	})
	b.SetDeliver(1, func(from proto.NodeID, msg any) {
		if inv, ok := msg.(core.INV); ok {
			b.Send(1, from, core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS})
		}
	})
	return a, b, ackCh, func() {
		a.Close()
		b.Close()
	}
}

// drive pushes n INVs through a's outbound link and waits for every ACK.
// With a 4-credit window and no explicit credit updates, completing at all
// proves the implicit repayments reached the link that spent the credits.
func drive(t *testing.T, a *Mesh, ackCh chan core.ACK, n, base int) {
	t.Helper()
	sent := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			a.Send(0, 1, core.INV{Epoch: 1, Key: proto.Key(base + i), TS: proto.TS{Version: 1}})
		}
		close(sent)
	}()
	deadline := time.After(20 * time.Second)
	for got := 0; got < n; {
		select {
		case <-ackCh:
			got++
		case <-deadline:
			t.Fatalf("stalled after %d/%d ACKs: implicit repayment is not reaching the outbound link", got, n)
		}
	}
	select {
	case <-sent:
	case <-deadline:
		t.Fatal("sender still blocked after all ACKs arrived")
	}
}

// TestMeshImplicitCreditsRepayOutboundLink is the regression test for the
// credit-routing bug: ACKs arrive on the inbound connection B dialed, not on
// the connection A's outbound link writes to, so repayments must be routed
// to the outbound link by peer ID — otherwise a starved sender deadlocks
// once the window is spent (4 here, with ExplicitEvery disabled).
func TestMeshImplicitCreditsRepayOutboundLink(t *testing.T) {
	a, _, ackCh, done := echoMeshPair(t)
	defer done()

	drive(t, a, ackCh, 64, 0)

	out := a.links[1].Load()
	if out == nil {
		t.Fatal("no outbound link to peer 1")
	}
	st := out.Stats()
	if st.ImplicitCreditsRecovered == 0 {
		t.Fatal("outbound link recovered no implicit credits")
	}
	if st.ImplicitCreditsRecovered < 32 {
		t.Fatalf("outbound link recovered only %d implicit credits for 64 round trips",
			st.ImplicitCreditsRecovered)
	}
}

// TestMeshImplicitCreditsSurviveReconnect restarts the responder mid-run:
// A's outbound link dies with the peer, a fresh one is dialed lazily, and
// repayments must find the NEW link — the mesh routes them by peer ID at
// repayment time, not through a pointer captured at connection setup.
func TestMeshImplicitCreditsSurviveReconnect(t *testing.T) {
	a, b, ackCh, done := echoMeshPair(t)
	defer done()

	drive(t, a, ackCh, 16, 0)
	first := a.links[1].Load()

	// Crash-restart B on the same address.
	addrB := b.Addr()
	b.Close()
	addrs := map[proto.NodeID]string{0: a.Addr(), 1: addrB}
	var b2 *Mesh
	var err error
	for i := 0; i < 50; i++ { // the freed port can linger briefly
		b2, err = NewMesh(1, addrs)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	defer b2.Close()
	b2.cfg = starvedLinkConfig()
	b2.SetDeliver(1, func(from proto.NodeID, msg any) {
		if inv, ok := msg.(core.INV); ok {
			b2.Send(1, from, core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS})
		}
	})

	// A's link to the dead B may take a beat to notice; retry the first
	// sends until the fresh link carries traffic end to end.
	deadline := time.After(20 * time.Second)
	for {
		a.Send(0, 1, core.INV{Epoch: 1, Key: 999, TS: proto.TS{Version: 1}})
		select {
		case <-ackCh:
		case <-time.After(200 * time.Millisecond):
			select {
			case <-deadline:
				t.Fatal("no traffic across the reconnected mesh")
			default:
				continue
			}
		}
		break
	}

	// Far more traffic than the 4-credit window: only implicit repayments
	// reaching the new outbound link let this finish.
	drive(t, a, ackCh, 64, 1000)

	second := a.links[1].Load()
	if second == nil {
		t.Fatal("no outbound link after reconnect")
	}
	if second == first {
		t.Fatal("outbound link was not replaced across the reconnect")
	}
	if st := second.Stats(); st.ImplicitCreditsRecovered == 0 {
		t.Fatal("post-reconnect outbound link recovered no implicit credits")
	}
}

// TestCreditsRepaidExactlyOnce pins the discipline down at the link level
// with the mesh's own config: request traffic (INVs) is repaid ONLY
// implicitly — the receiver must not also count it toward explicit grants,
// or every credit comes back twice and the window stops meaning anything —
// while one-way VAL traffic is repaid ONLY by explicit grants.
func TestCreditsRepaidExactlyOnce(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Credits = 4
	cfg.ExplicitEvery = 2

	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	a := wings.NewLink(ca, cfg)
	b := wings.NewLink(cb, cfg)
	acks := make(chan any, 256)
	go a.Serve(ca, func(m any) { acks <- m })
	go b.Serve(cb, func(m any) {
		if inv, ok := m.(core.INV); ok {
			b.Send(core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS})
		}
	})
	defer a.Close()
	defer b.Close()

	const n = 32
	go func() {
		for i := 0; i < n; i++ {
			a.Send(core.INV{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}})
		}
	}()
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		select {
		case <-acks:
			got++
		case <-deadline:
			t.Fatalf("request traffic stalled at %d/%d (implicit repayment broken)", got, n)
		}
	}
	if st := b.Stats(); st.ExplicitCreditsSent != 0 {
		t.Fatalf("receiver issued %d explicit grants for request traffic repaid implicitly",
			st.ExplicitCreditsSent)
	}
	if st := a.Stats(); st.ImplicitCreditsRecovered < n {
		t.Fatalf("only %d of %d request credits repaid implicitly", st.ImplicitCreditsRecovered, n)
	}

	// One-way VALs: far more than the window only completes via explicit
	// grants.
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(core.VAL{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("one-way VAL traffic stalled (explicit grants broken)")
	}
	if st := b.Stats(); st.ExplicitCreditsSent == 0 {
		t.Fatal("no explicit grants for one-way traffic")
	}
}

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

// TestRequestBatchesDrainUnderTheWindow: a request batch's price is its INV
// count, and it waits until the window covers all of it. With 63 credits
// sitting in VALs the peer has not granted for yet (one short of
// ExplicitEvery), the window tops out at 961: a 1000-INV batch would wait for
// a level that never comes, and hold every later INV and VAL behind it. Cut
// the way the cluster's stages cut it — 256 to a batch — the same 1000 INVs
// drain: three batches go at once, the fourth as soon as ACKs come back.
func TestRequestBatchesDrainUnderTheWindow(t *testing.T) {
	cfg := DefaultLinkConfig()
	const oneWay, invs, perBatch = 63, 1000, 256
	if oneWay >= cfg.ExplicitEvery || cfg.Credits-oneWay >= invs || perBatch > (cfg.Credits-oneWay)/2 {
		t.Fatalf("window %d, grants every %d: the test lost its premise", cfg.Credits, cfg.ExplicitEvery)
	}
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	a, b := wings.NewLink(ca, cfg), wings.NewLink(cb, cfg)
	defer a.Close()
	defer b.Close()
	go a.Serve(ca, func(any) {})
	arrived := make(chan int, invs)
	serveB := func() {
		b.Serve(cb, func(m any) {
			sb, ok := m.(proto.ShardBatch)
			if !ok || isOneWay(m) {
				return
			}
			acks := proto.ShardBatch{Msgs: make([]proto.ShardMsg, len(sb.Msgs))}
			for i, sm := range sb.Msgs {
				inv := sm.Msg.(core.INV)
				acks.Msgs[i] = proto.ShardMsg{Shard: sm.Shard, Msg: core.ACK{Epoch: inv.Epoch, Key: inv.Key, TS: inv.TS}}
			}
			b.Post(acks)
			arrived <- len(sb.Msgs)
		})
	}

	// Nobody reads b's end yet, so nothing a posts is answered before all of
	// it is posted: what parks does not depend on timing.
	for i := 0; i < oneWay; i++ {
		if err := a.Post(core.VAL{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for sent := 0; sent < invs; {
		batch := proto.ShardBatch{}
		for ; len(batch.Msgs) < perBatch && sent < invs; sent++ {
			batch.Msgs = append(batch.Msgs, proto.ShardMsg{Msg: core.INV{Epoch: 1, Key: proto.Key(sent), TS: proto.TS{Version: 1}}})
		}
		if err := a.Post(batch); err != nil {
			t.Fatal(err)
		}
	}
	go serveB()
	for got := 0; got < invs; {
		select {
		case n := <-arrived:
			got += n
		case <-time.After(10 * time.Second):
			t.Fatalf("request batches stalled at %d/%d INVs: %+v", got, invs, a.Stats())
		}
	}
	if st := a.Stats(); st.CreditStalls != 1 || st.Shed != 0 {
		t.Fatalf("CreditStalls = %d, Shed = %d; want only the fourth batch to have waited", st.CreditStalls, st.Shed)
	}
}
