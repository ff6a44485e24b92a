package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvs"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wings"
)

// The isolated ladder measures each hop of an op on its own, through the
// layer's public functions: the layer budget of ROADMAP.md, taken from
// outside. Rungs run one at a time on one goroutine (plus whatever goroutines
// the layer under test owns), with values of the workload's size where a rung
// carries one. Each reports the lower-quartile time per op over its batches
// and the mean allocations per op.

// rung is one ladder measurement. run prepares its fixture and returns the
// op to time and a cleanup; batch is how many ops go between clock reads.
type rung struct {
	name, unit string
	batch      int
	run        func(w workloadSpec) (op func(), cleanup func(), err error)
}

const ladderKeys = 4096

var ladder = []rung{
	{"workload.next_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		ops := newOpStream(w, 1, 0)
		return func() { ops.next() }, nil, nil
	}},
	{"stats.record_ns", "ns", 64, func(workloadSpec) (func(), func(), error) {
		h, d := stats.NewHistogram(), time.Duration(0)
		return func() { d += 137; h.Record(d & 0xFFFFF) }, nil, nil
	}},
	{"refbuf.get_release_ns", "ns", 64, func(workloadSpec) (func(), func(), error) {
		pool := refbuf.NewPool()
		return func() { pool.Get(64).Release() }, nil, nil
	}},
	{"kvs.get_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		st, k := filledStore(w, nil), proto.Key(0)
		return func() { k = (k + 1) % ladderKeys; st.Get(k) }, nil, nil
	}},
	{"kvs.get_retained_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		st, k := filledStore(w, refbuf.NewPool()), proto.Key(0)
		return func() {
			k = (k + 1) % ladderKeys
			if e, ok := st.GetRetained(k); ok && e.Owner != nil {
				e.Owner.Release()
			}
		}, nil, nil
	}},
	{"kvs.update_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		st, k, val := filledStore(w, nil), proto.Key(0), make(proto.Value, w.ValueSize)
		ts := proto.TS{Version: 2}
		return func() {
			k = (k + 1) % ladderKeys
			ts.Version++
			st.Update(k, kvs.Entry{Value: val, TS: ts, State: kvs.Valid})
		}, nil, nil
	}},
	{"core.readlocal_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		h := core.New(core.Config{ID: 0, View: ladderView(), Env: &nullEnv{}, Store: filledStore(w, nil), MLT: mlt})
		k := proto.Key(0)
		return func() {
			k = (k + 1) % ladderKeys
			if _, owner, ok := h.ReadLocalRetained(k); ok && owner != nil {
				owner.Release()
			}
		}, nil, nil
	}},
	{"core.write_coord_turn_ns", "ns", 16, func(w workloadSpec) (func(), func(), error) {
		// Submit, then the two followers' ACKs: the coordinator's whole part
		// of a write, against an Env that discards what it is sent.
		env := &nullEnv{}
		h := core.New(core.Config{ID: 0, View: ladderView(), Env: env, MLT: mlt})
		k, val := proto.Key(0), make(proto.Value, w.ValueSize)
		return func() {
			k = (k + 1) % ladderKeys
			h.Submit(proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: val})
			ack := core.ACK{Epoch: 1, Key: k, TS: env.lastINV}
			h.Deliver(1, ack)
			h.Deliver(2, ack)
		}, nil, nil
	}},
	{"core.write_follower_turn_ns", "ns", 16, func(w workloadSpec) (func(), func(), error) {
		h := core.New(core.Config{ID: 1, View: ladderView(), Env: &nullEnv{}, MLT: mlt})
		k, val, ts := proto.Key(0), make(proto.Value, w.ValueSize), proto.TS{Version: 2}
		return func() {
			if k = (k + 1) % ladderKeys; k == 0 {
				ts.Version += 2 // next lap: every key gets a newer write
			}
			h.Deliver(0, core.INV{Epoch: 1, Key: k, TS: ts, Value: val})
			h.Deliver(0, core.VAL{Epoch: 1, Key: k, TS: ts})
		}, nil, nil
	}},
	{"wings.clientreq_codec_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		return codecRung(proto.ClientReq{Seq: 7, Op: proto.OpWrite, Key: 42, Value: make(proto.Value, w.ValueSize)})
	}},
	{"wings.clientresp_encode_ns", "ns", 16, func(workloadSpec) (func(), func(), error) {
		resps := make([]proto.ClientResp, 16)
		for i := range resps {
			resps[i] = proto.ClientResp{Seq: uint64(i), Value: make(proto.Value, 64)}
		}
		var buf []byte
		return func() { buf, _ = wings.AppendClientResps(buf[:0], resps) }, nil, nil
	}},
	{"wings.inv_codec_ns_32B", "ns", 64, func(workloadSpec) (func(), func(), error) {
		return codecRung(core.INV{Epoch: 1, Key: 42, TS: proto.TS{Version: 2}, Value: make(proto.Value, 32)})
	}},
	{"wings.inv_codec_ns_4KiB", "ns", 64, func(workloadSpec) (func(), func(), error) {
		return codecRung(core.INV{Epoch: 1, Key: 42, TS: proto.TS{Version: 2}, Value: make(proto.Value, 4096)})
	}},
	{"wings.ack_codec_ns", "ns", 64, func(workloadSpec) (func(), func(), error) {
		return codecRung(core.ACK{Epoch: 1, Key: 42, TS: proto.TS{Version: 2}})
	}},
	{"wings.shardbatch_codec_ns", "ns", 16, func(workloadSpec) (func(), func(), error) {
		var sb proto.ShardBatch
		for i := 0; i < 16; i++ {
			sb.Msgs = append(sb.Msgs, proto.ShardMsg{Shard: uint16(i % shards), Msg: core.ACK{Epoch: 1, Key: proto.Key(i), TS: proto.TS{Version: 2}}})
		}
		return codecRung(sb)
	}},
	{"wings.link_rtt_us", "us", 1, linkRTTRung},
	{"cluster.chan_write_us", "us", 1, func(w workloadSpec) (func(), func(), error) {
		grp := cluster.NewShardedLocal(cluster.LocalConfig{N: replicas, MLT: mlt}, shards)
		op, err := blockingWrites(grp.Nodes[0], w)
		return op, grp.Close, err
	}},
	{"cluster.chan_read_ns", "ns", 64, func(w workloadSpec) (func(), func(), error) {
		grp := cluster.NewShardedLocal(cluster.LocalConfig{N: replicas, MLT: mlt}, shards)
		n, ctx, k := grp.Nodes[0], context.Background(), proto.Key(0)
		for i := 0; i < ladderKeys; i++ {
			if err := n.Write(ctx, proto.Key(i), make(proto.Value, w.ValueSize)); err != nil {
				grp.Close()
				return nil, nil, err
			}
		}
		return func() { k = (k + 1) % ladderKeys; n.Read(ctx, k) }, grp.Close, nil
	}},
	{"transport.mesh_write_us", "us", 1, func(w workloadSpec) (func(), func(), error) {
		tb, err := newReplicas(nil)
		if err != nil {
			return nil, nil, err
		}
		op, err := blockingWrites(tb.nodes[0], w)
		return op, tb.close, err
	}},
	{"server.null_backend_rtt_us", "us", 1, func(w workloadSpec) (func(), func(), error) {
		srv := server.New(server.Config{Backend: nullBackend{}})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		go srv.Serve(ln)
		c, err := client.Dial(ln.Addr().String(), client.Config{})
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		val := make(proto.Value, w.ValueSize)
		cleanup := func() { c.Close(); srv.Close() }
		if err := c.Write(1, val); err != nil {
			cleanup()
			return nil, nil, err
		}
		return func() { c.Write(1, val) }, cleanup, nil
	}},
}

// nullEnv is a proto.Env that goes nowhere: it remembers the timestamp of
// the last INV so a rung can acknowledge it, and drops everything else.
type nullEnv struct {
	now     time.Duration
	lastINV proto.TS
}

func (e *nullEnv) Now() time.Duration { e.now += time.Microsecond; return e.now }
func (e *nullEnv) Send(_ proto.NodeID, msg any) {
	if inv, ok := msg.(core.INV); ok {
		e.lastINV = inv.TS
	}
}
func (e *nullEnv) Complete(proto.Completion) {}

// nullBackend completes every op inline: the serving layer with nothing
// behind it.
type nullBackend struct{}

func (nullBackend) ReadLocal(proto.Key) (proto.Value, bool) { return nil, false }
func (nullBackend) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	fn(proto.Completion{Kind: op.Kind, Key: op.Key, Status: proto.OK})
	return nil
}

func ladderView() proto.View {
	return proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}}
}

// filledStore holds ladderKeys Valid entries; with a pool their values alias
// refcounted buffers, as values adopted from the wire do.
func filledStore(w workloadSpec, pool *refbuf.Pool) *kvs.Store {
	st := kvs.New(64)
	for k := proto.Key(0); k < ladderKeys; k++ {
		e := kvs.Entry{Value: make(proto.Value, w.ValueSize), TS: proto.TS{Version: 2}, State: kvs.Valid}
		if pool != nil {
			e.Owner = pool.Get(w.ValueSize)
			e.Value = e.Owner.Bytes()
		}
		st.Update(k, e)
	}
	return st
}

// codecRung times one encode into a reused buffer plus one decode.
func codecRung(msg any) (func(), func(), error) {
	var buf []byte
	if _, err := wings.AppendFrame(nil, msg); err != nil {
		return nil, nil, fmt.Errorf("encode %T: %w", msg, err)
	}
	return func() {
		buf, _ = wings.AppendFrame(buf[:0], msg)
		wings.DecodeOne(buf)
	}, nil, nil
}

// blockingWrites times node.Write at depth 1 over a small keyspace.
func blockingWrites(n *cluster.ShardedNode, w workloadSpec) (func(), error) {
	ctx, k, val := context.Background(), proto.Key(0), make(proto.Value, w.ValueSize)
	if err := n.Write(ctx, k, val); err != nil { // dials the mesh links
		return nil, err
	}
	return func() { k = (k + 1) % ladderKeys; n.Write(ctx, k, val) }, nil
}

// linkRTTRung bounces one small request off a wings.Link pair over loopback
// TCP: Send on one side, Serve on the other, and back.
func linkRTTRung(workloadSpec) (func(), func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	far := <-accepted
	if far == nil {
		near.Close()
		return nil, nil, fmt.Errorf("link rung: accept failed")
	}
	cfg := wings.LinkConfig{Credits: 64, IsResponse: func(m any) bool {
		_, ok := m.(proto.ClientResp)
		return ok
	}}
	nearLink, farLink := wings.NewLink(near, cfg), wings.NewLink(far, cfg)
	back := make(chan struct{}, 1)
	served := make(chan struct{}, 2)
	go func() {
		farLink.Serve(far, func(m any) { farLink.Send(proto.ClientResp{Seq: m.(proto.ClientReq).Seq}) })
		served <- struct{}{}
	}()
	go func() {
		nearLink.Serve(near, func(any) { back <- struct{}{} })
		served <- struct{}{}
	}()
	seq := uint64(0)
	op := func() {
		seq++
		nearLink.Send(proto.ClientReq{Seq: seq, Op: proto.OpRead, Key: 1})
		<-back
	}
	cleanup := func() {
		near.Close()
		far.Close()
		nearLink.Close()
		farLink.Close()
		<-served
		<-served
	}
	return op, cleanup, nil
}

// runLadder measures every rung for about budget each and files <rung> and
// <rung>.allocs under out.
func runLadder(w workloadSpec, budget time.Duration, out map[string]metric) error {
	for _, r := range ladder {
		op, cleanup, err := r.run(w)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		// Time per op is the good quartile over batches, so a collection or
		// a descheduling that lands in some batches does not colour the rung.
		var per []float64
		for start := time.Now(); time.Since(start) < budget; {
			t0 := time.Now()
			for i := 0; i < r.batch; i++ {
				op()
			}
			per = append(per, float64(time.Since(t0))/float64(r.batch))
		}
		runtime.ReadMemStats(&ms)
		if cleanup != nil {
			cleanup()
		}
		t := goodQuartile(per, false).value
		if r.unit == "us" {
			t /= 1e3
		}
		allocs := float64(ms.Mallocs-mallocs) / float64(len(per)*r.batch)
		out[r.name] = metric{Unit: r.unit, Value: t}
		out[r.name+".allocs"] = metric{Unit: "ratio", Value: allocs}
	}
	return nil
}
