package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// writeRatios is the x-axis of Figs. 5 and 6b/6c.
var writeRatios = []float64{0.01, 0.05, 0.20, 0.50, 0.75, 1.00}

// throughputSystems are the three systems of Figs. 5-7.
var throughputSystems = []System{Hermes, CRAQ, ZAB}

// Fig5a: throughput (Mreq/s) vs write ratio, uniform access, 5 nodes.
func Fig5a(sc Scale) *stats.Table {
	return fig5(sc, false)
}

// Fig5b: throughput vs write ratio under Zipfian(0.99) skew, 5 nodes.
func Fig5b(sc Scale) *stats.Table {
	return fig5(sc, true)
}

func fig5(sc Scale, zipf bool) *stats.Table {
	t := &stats.Table{Header: []string{"write%", "HermesKV(M/s)", "rCRAQ(M/s)", "rZAB(M/s)"}}
	for _, wr := range writeRatios {
		row := []any{fmt.Sprintf("%.0f", wr*100)}
		for _, sys := range throughputSystems {
			res := Run(Point{System: sys, Nodes: 5, WriteRatio: wr, Zipf: zipf}, sc)
			row = append(row, Mops(res.Throughput))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig6a: median and 99th-percentile latency vs throughput at 5% writes,
// uniform traffic, 5 nodes; load swept by session count.
func Fig6a(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{"system", "sessions", "tput(M/s)", "p50(us)", "p99(us)"}}
	for _, sys := range throughputSystems {
		for _, sess := range []int{1, 2, 4, 8, 16, 32} {
			res := Run(Point{System: sys, Nodes: 5, WriteRatio: 0.05, Sessions: sess}, sc)
			t.AddRow(sys.String(), sess, Mops(res.Throughput),
				Micros(res.All.Median()), Micros(res.All.P99()))
		}
	}
	return t
}

// Fig6b: read and write median/99th latency vs write ratio, uniform.
func Fig6b(sc Scale) *stats.Table { return fig6latency(sc, false) }

// Fig6c: same under Zipfian(0.99) skew.
func Fig6c(sc Scale) *stats.Table { return fig6latency(sc, true) }

func fig6latency(sc Scale, zipf bool) *stats.Table {
	t := &stats.Table{Header: []string{
		"system", "write%", "rd-p50(us)", "rd-p99(us)", "wr-p50(us)", "wr-p99(us)"}}
	for _, sys := range []System{Hermes, CRAQ} {
		for _, wr := range writeRatios {
			res := Run(Point{System: sys, Nodes: 5, WriteRatio: wr, Zipf: zipf}, sc)
			t.AddRow(sys.String(), fmt.Sprintf("%.0f", wr*100),
				Micros(res.Read.Median()), Micros(res.Read.P99()),
				Micros(res.Write.Median()), Micros(res.Write.P99()))
		}
	}
	return t
}

// Fig7: throughput scalability across 3/5/7 replicas at 1% and 20% writes.
func Fig7(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{"write%", "system", "3 nodes(M/s)", "5 nodes(M/s)", "7 nodes(M/s)"}}
	for _, wr := range []float64{0.01, 0.20} {
		for _, sys := range throughputSystems {
			row := []any{fmt.Sprintf("%.0f", wr*100), sys.String()}
			for _, n := range []int{3, 5, 7} {
				res := Run(Point{System: sys, Nodes: n, WriteRatio: wr}, sc)
				row = append(row, Mops(res.Throughput))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Fig8: write-only throughput vs object size, Hermes vs the Derecho-like
// lock-step total order. One pipelining worker per node on each side (the
// paper limits HermesKV to a single thread; a thread still serves many
// concurrent client requests). Per-byte costs enabled.
func Fig8(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{"size(B)", "HermesKV(M/s)", "Derecho-like(M/s)", "ratio"}}
	for _, size := range []int{32, 256, 1024} {
		h := Run(Point{System: Hermes, Nodes: 5, WriteRatio: 1, ValueSize: size, PerByte: true}, sc)
		d := Run(Point{System: Lockstep, Nodes: 5, WriteRatio: 1, ValueSize: size, PerByte: true}, sc)
		ratio := 0.0
		if d.Throughput > 0 {
			ratio = h.Throughput / d.Throughput
		}
		t.AddRow(size, Mops(h.Throughput), Mops(d.Throughput), ratio)
	}
	return t
}

// Fig9Result carries the failure experiment's series.
type Fig9Result struct {
	Table  *stats.Table
	Series map[string][]float64 // per write-ratio rate curves
}

// Fig9: HermesKV throughput over time with a node failure at 1/3 of the
// run and RM-driven recovery (suspicion + lease expiry ≈ the paper's 150ms
// timeout, scaled to simulator time).
func Fig9(sc Scale) Fig9Result {
	const (
		runFor     = 30 * time.Millisecond
		crashAt    = 10 * time.Millisecond
		bucket     = time.Millisecond
		suspect    = time.Millisecond
		lease      = 2 * time.Millisecond
		heartbeats = 200 * time.Microsecond
	)
	out := Fig9Result{
		Table:  &stats.Table{Header: []string{"write%", "pre-crash(M/s)", "dip(M/s)", "recovered(M/s)", "recovery(ms)"}},
		Series: map[string][]float64{},
	}
	for _, wr := range []float64{0.01, 0.05, 0.20} {
		c := sim.New(sim.Config{
			Nodes:   5,
			Factory: HermesFactory(func(cc *core.Config) { cc.MLT = 2 * time.Millisecond }),
			Net:     sim.DefaultNet(),
			Seed:    9,
			SizeOf:  SizeOf,
			RM: &sim.RMParams{
				HeartbeatEvery: heartbeats,
				SuspectAfter:   suspect,
				LeaseDur:       lease,
			},
		})
		c.CrashAt(4, crashAt)
		res := c.RunWorkload(sim.WorkloadParams{
			Workload:        workload.Config{Keys: sc.Keys, WriteRatio: wr, ValueSize: 32},
			SessionsPerNode: sessionsOr(sc, 4),
			Duration:        runFor,
			SeriesBucket:    bucket,
			Seed:            3,
		})
		rates := res.Series.Rates()
		label := fmt.Sprintf("%.0f%%", wr*100)
		out.Series[label] = rates
		pre := avg(rates[3:9])
		crashBkt := int(crashAt / bucket)
		dip := minOf(rates[crashBkt+1 : crashBkt+3])
		rec := avg(rates[len(rates)-4:])
		recMs := -1.0
		for i := crashBkt; i < len(rates); i++ {
			if rates[i] > pre/2 {
				recMs = float64(i)*bucket.Seconds()*1e3 - crashAt.Seconds()*1e3
				break
			}
		}
		out.Table.AddRow(label, Mops(pre), Mops(dip), Mops(rec), recMs)
	}
	return out
}

func sessionsOr(sc Scale, def int) int {
	if sc.Sessions > 0 {
		return sc.Sessions
	}
	return def
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Table2 renders the systems' qualitative feature comparison (paper
// Table 2); values are properties of the implementations in this repo.
func Table2() *stats.Table {
	t := &stats.Table{Header: []string{
		"system", "local-reads", "leases", "consistency", "write-concurrency", "write-RTT", "decentralized"}}
	t.AddRow("HermesKV", "yes", "one per RM", "Lin", "inter-key", "1", "yes")
	t.AddRow("rCRAQ", "yes", "one per RM", "Lin", "inter-key", "O(n)", "no")
	t.AddRow("rZAB", "yes (SC)", "none", "SC", "serializes all", "2", "no")
	t.AddRow("Derecho-like", "yes (SC)", "none", "SC", "serializes all", "1 (lock-step)", "yes")
	return t
}

// --- Ablations beyond the paper's figures (design-choice benches) ---

// AblationO2 measures conflict-win fairness with and without virtual node
// IDs: the share of same-version conflicts won by the lowest-ID node.
func AblationO2(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{"virtualIDs", "node0-wins%", "node4-wins%", "stdev%"}}
	for _, k := range []int{1, 8} {
		k := k
		c := sim.New(sim.Config{
			Nodes: 5,
			Factory: HermesFactory(func(cc *core.Config) {
				if k > 1 {
					cc.VirtualIDs = core.VirtualIDs(cc.ID, 5, k)
				}
			}),
			Net:    sim.DefaultNet(),
			Seed:   5,
			SizeOf: SizeOf,
		})
		c.RunWorkload(sim.WorkloadParams{
			Workload:        workload.Config{Keys: 4, WriteRatio: 1, ValueSize: 8},
			SessionsPerNode: sessionsOr(sc, 4),
			Warmup:          sc.Warmup,
			Duration:        sc.Duration,
			Seed:            6,
		})
		// Wins: whose cid owns the final committed timestamps? Sample the
		// stores: count keys whose winning cid maps to each node.
		wins := make([]float64, 5)
		total := 0.0
		owner := core.StrideOwner(5)
		for k2 := proto.Key(0); k2 < 4; k2++ {
			h := c.Replica(0).(*core.Hermes)
			if e, ok := h.Store().Get(k2); ok {
				wins[owner(e.TS.CID)]++
				total++
			}
		}
		// Final snapshot is a small sample; complement with metrics on
		// aborts/trans? Report share of node 0 and node 4 wins.
		p0, p4 := 0.0, 0.0
		if total > 0 {
			p0, p4 = wins[0]/total*100, wins[4]/total*100
		}
		sm := stats.Summarize(wins)
		t.AddRow(k > 1, p0, p4, sm.Stdev/total*100)
	}
	return t
}

// AblationNoLSC measures the §8 clock-free read validation cost: read
// latency with and without loosely synchronized clocks.
func AblationNoLSC(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{"mode", "rd-p50(us)", "rd-p99(us)", "tput(M/s)", "mchecks"}}
	for _, nolsc := range []bool{false, true} {
		nolsc := nolsc
		c := sim.New(sim.Config{
			Nodes:     5,
			Factory:   HermesFactory(func(cc *core.Config) { cc.NoLSC = nolsc }),
			Net:       sim.DefaultNet(),
			Seed:      11,
			SizeOf:    SizeOf,
			TickEvery: 20 * time.Microsecond, // mchecks piggyback on ticks
		})
		res := c.RunWorkload(sim.WorkloadParams{
			Workload:        workload.Config{Keys: sc.Keys, WriteRatio: 0.05, ValueSize: 32},
			SessionsPerNode: sessionsOr(sc, 4),
			Warmup:          sc.Warmup,
			Duration:        sc.Duration,
			Seed:            12,
		})
		var checks uint64
		for id := proto.NodeID(0); id < 5; id++ {
			checks += c.Replica(id).(*core.Hermes).Metrics().MChecks
		}
		mode := "LSC leases"
		if nolsc {
			mode = "no-LSC (§8)"
		}
		t.AddRow(mode, Micros(res.Read.Median()), Micros(res.Read.P99()), Mops(res.Throughput), checks)
	}
	return t
}
