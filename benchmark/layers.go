package main

import (
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
)

// counters is every public counter of the deployment, summed over nodes and
// shards, read at quiescence.
type counters struct {
	fastHits, fastMisses                   uint64 // ShardedNode.ReadStats, served nodes
	batches, coalesced, singles, coalDrops uint64 // ShardedNode.CoalesceStats, all nodes
	loads                                  []uint64
	core                                   core.Metrics // Shard(i).Hermes().Metrics(), all nodes
	srvFast, srvKilled                     uint64       // server.Stats
	mem                                    runtime.MemStats
}

func (tb *testbed) snapshot() counters {
	var c counters
	for i, n := range tb.nodes {
		b, co, s, d := n.CoalesceStats()
		c.batches, c.coalesced, c.singles, c.coalDrops = c.batches+b, c.coalesced+co, c.singles+s, c.coalDrops+d
		if i < sessions {
			_, h, m := n.ReadStats()
			c.fastHits, c.fastMisses = c.fastHits+h, c.fastMisses+m
			c.loads = append(c.loads, n.ShardLoads()...)
		}
		for s := 0; s < n.Shards(); s++ {
			m := shardMetrics(n, s)
			c.core.Reads += m.Reads
			c.core.Writes += m.Writes
			c.core.RMWs += m.RMWs
			c.core.INVsSent += m.INVsSent
			c.core.ACKsSent += m.ACKsSent
			c.core.VALsSent += m.VALsSent
			c.core.Replays += m.Replays
			c.core.Retransmits += m.Retransmits
			c.core.StalledReads += m.StalledReads
		}
	}
	for _, s := range tb.servers {
		st := s.Stats()
		c.srvFast, c.srvKilled = c.srvFast+st.FastReads, c.srvKilled+st.Killed
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// shardMetrics reads one engine's protocol counters on that engine's own
// event loop — a SubmitAsync callback runs there — because all but the read
// counters are private to the loop. The carrier is a read of a key nobody
// writes, which completes at once.
func shardMetrics(n *cluster.ShardedNode, shard int) core.Metrics {
	key := proto.Key(1 << 40)
	for int(proto.ShardOf(key, n.Shards())) != shard {
		key++
	}
	got := make(chan core.Metrics, 1)
	err := n.SubmitAsync(proto.ClientOp{Kind: proto.OpRead, Key: key}, func(proto.Completion) {
		got <- n.Shard(shard).Hermes().Metrics()
	})
	if err != nil {
		return core.Metrics{} // node closed
	}
	return <-got
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quiesce lets VALs and coalescer flushes that trail the last reply land, so
// that counters read afterwards are whole.
func quiesce() { time.Sleep(50 * time.Millisecond) }

// tracedPhases runs the traced part of a -trace 1 run and files under out
// every per-layer metric that comes from the live deployment. Counter ratios and
// the call-cost spans are taken over the saturated phase, where they explain
// throughput and CPU per op; the latency spans over the latency phase, where
// they explain the latency percentiles.
//
// The per-layer numbers are as timed: spans and ladder rungs are not brought
// to reference host speed. around probes the host between the phases, and
// host.wall_speed and host.cpu_speed say how fast it was.
func tracedPhases(d *driver, tb *testbed, p plan, around func() (hostSpeed, error), out map[string]metric) error {
	put := func(name string, v float64) {
		out[name] = metric{Unit: perLayerUnits[name], Value: v}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	tr := tb.tr
	var wall, cpu []float64
	probe := func() error {
		v, err := around()
		wall, cpu = append(wall, v.wall), append(cpu, v.cpu)
		return err
	}

	if err := probe(); err != nil {
		return err
	}
	untraced := d.phase(satDepth, p.untraced, sessions)

	quiesce()
	before := tb.snapshot()
	tr.reset()
	tr.on.Store(true)
	sat := d.phase(satDepth, p.sat, sessions)
	tr.on.Store(false)
	quiesce()
	after := tb.snapshot()

	put("trace.overhead_frac", 1-sat.throughput().value/untraced.throughput().value)
	put("client.sat_read_p99_us", sat.latency(classRead, 0.99).value)
	put("client.sat_update_p99_us", sat.latency(classUpdate, 0.99).value)
	put("client.do_call_us", us(mean(tr.durations(spanDoCall))))
	put("transport.send_call_us", us(mean(tr.durations(spanSend))))

	updates := after.core.Writes + after.core.RMWs - before.core.Writes - before.core.RMWs
	reads := after.core.Reads - before.core.Reads
	put("transport.sends_per_update", ratio(tr.sends.Load(), updates))
	put("transport.msgs_per_update", ratio(tr.invs.Load()+tr.acks.Load()+tr.vals.Load()+tr.others.Load(), updates))
	put("transport.bytes_per_update", ratio(tr.bytesSample.Load()*bytesEvery, updates))
	batches, coalesced, singles := after.batches-before.batches, after.coalesced-before.coalesced, after.singles-before.singles
	put("cluster.coalesce_msgs_per_batch", ratio(coalesced, batches))
	put("cluster.coalesce_single_frac", ratio(singles, singles+coalesced))
	put("cluster.coalesce_dropped", float64(after.coalDrops-before.coalDrops))
	hits, misses := after.fastHits-before.fastHits, after.fastMisses-before.fastMisses
	put("cluster.read_fast_hit_frac", ratio(hits, hits+misses))
	var maxLoad, sumLoad uint64
	for i := range after.loads {
		l := after.loads[i] - before.loads[i]
		maxLoad, sumLoad = max(maxLoad, l), sumLoad+l
	}
	put("cluster.shard_load_skew", ratio(maxLoad*uint64(len(after.loads)), sumLoad))
	put("core.stalled_read_frac", ratio(after.core.StalledReads-before.core.StalledReads, reads))
	put("core.invs_per_update", ratio(after.core.INVsSent-before.core.INVsSent, updates))
	put("core.acks_per_update", ratio(after.core.ACKsSent-before.core.ACKsSent, updates))
	put("core.vals_per_update", ratio(after.core.VALsSent-before.core.VALsSent, updates))
	put("core.retransmits", float64(after.core.Retransmits-before.core.Retransmits))
	put("core.replays", float64(after.core.Replays-before.core.Replays))
	put("server.fastread_frac", ratio(after.srvFast-before.srvFast, reads))
	put("server.killed_sessions", float64(after.srvKilled))
	ops := uint64(sat.totalOps())
	put("proc.allocs_per_op", ratio(after.mem.Mallocs-before.mem.Mallocs, ops))
	put("proc.alloc_bytes_per_op", ratio(after.mem.TotalAlloc-before.mem.TotalAlloc, ops))
	put("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	put("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	dropped := tr.dropped()
	if err := probe(); err != nil {
		return err
	}

	tr.reset()
	tr.on.Store(true)
	lat := d.phase(latDepth, p.lat, sessions)
	tr.on.Store(false)

	readP50 := lat.latency(classRead, 0.5).value
	put("client.lat_read_p99_us", lat.latency(classRead, 0.99).value)
	put("client.lat_update_p99_us", lat.latency(classUpdate, 0.99).value)
	put("client.lat_read_p999_us", lat.latency(classRead, 0.999).value)
	readLocal := us(mean(tr.durations(spanReadLocal)))
	put("server.readlocal_us", readLocal)
	put("server.wire_self_us", readP50-readLocal)
	submit := tr.durations(spanSubmit)
	rtt := tr.durations(spanInvAck)
	put("server.submit_us_p50", us(quantile(submit, 0.5)))
	put("server.submit_us_p99", us(quantile(submit, tailQuantile(len(submit), 0.99))))
	put("transport.inv_ack_rtt_us_p50", us(quantile(rtt, 0.5)))
	put("transport.inv_ack_rtt_us_p99", us(quantile(rtt, tailQuantile(len(rtt), 0.99))))
	put("cluster.coord_self_us", us(quantile(submit, 0.5)-quantile(rtt, 0.5)))
	put("trace.spans_dropped", float64(dropped+tr.dropped()))
	if err := probe(); err != nil {
		return err
	}

	// One session, one op outstanding: the wire latency the ladder's rungs
	// are summed against.
	one := d.phase(1, p.depth1, 1)
	put("wire.depth1_read_us", one.latency(classRead, 0.5).value)
	put("wire.depth1_write_us", one.latency(classUpdate, 0.5).value)
	if err := probe(); err != nil {
		return err
	}
	put("host.wall_speed", median(wall).value)
	put("host.cpu_speed", median(cpu).value)
	return nil
}

func mean(xs []uint32) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// budget closes the layer budget: the share of the depth-1 wire latency that
// the rungs on the op's path do not account for. A write crosses the serving
// layer (server.null_backend_rtt_us: both client codecs, both session
// goroutines, the socket both ways) and the replicated write under it
// (transport.mesh_write_us: inbox, handler turns, coalescer, link, socket and
// the followers' turns); a read crosses the serving layer and the local read
// (cluster.chan_read_ns). The gap is time no rung explains, so it is
// reported, not tuned away.
func budget(m map[string]metric) {
	gap := func(wire string, rungs float64) metric {
		w := m[wire].Value
		if w == 0 {
			return metric{Unit: "ratio"}
		}
		return metric{Unit: "ratio", Value: (w - rungs) / w}
	}
	serve := m["server.null_backend_rtt_us"].Value
	m["budget.write_gap_frac"] = gap("wire.depth1_write_us", serve+m["transport.mesh_write_us"].Value)
	m["budget.read_gap_frac"] = gap("wire.depth1_read_us", serve+m["cluster.chan_read_ns"].Value/1e3)
}
