// Package repro's root benchmarks regenerate the paper's evaluation —
// one testing.B benchmark per table and figure of §6, at reduced (Quick)
// scale so `go test -bench=. -benchmem` stays tractable. Full-scale runs
// and the recorded paper-vs-measured numbers live in cmd/hermes-bench and
// EXPERIMENTS.md.
//
// Custom metrics: Mops = millions of completed client requests per second
// of *simulated* time; p50us/p99us = request latency percentiles in µs.
package repro

import (
	"testing"

	"repro/internal/bench"
)

func quick() bench.Scale { return bench.QuickScale() }

// point runs one configuration per benchmark iteration and reports
// simulated throughput/latency as custom metrics.
func point(b *testing.B, p bench.Point) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		res := bench.Run(p, quick())
		b.ReportMetric(res.Throughput/1e6, "Mops")
		b.ReportMetric(float64(res.All.Median())/1e3, "p50us")
		b.ReportMetric(float64(res.All.P99())/1e3, "p99us")
	}
}

// --- Figure 5a: throughput vs write ratio, uniform, 5 nodes ---

func BenchmarkFig5a_Hermes_w01(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.01})
}
func BenchmarkFig5a_Hermes_w05(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.05})
}
func BenchmarkFig5a_Hermes_w20(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.20})
}
func BenchmarkFig5a_Hermes_w100(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 1})
}
func BenchmarkFig5a_CRAQ_w01(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.01})
}
func BenchmarkFig5a_CRAQ_w05(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.05})
}
func BenchmarkFig5a_CRAQ_w20(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.20})
}
func BenchmarkFig5a_CRAQ_w100(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 1})
}
func BenchmarkFig5a_ZAB_w01(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 0.01})
}
func BenchmarkFig5a_ZAB_w05(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 0.05})
}
func BenchmarkFig5a_ZAB_w20(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 0.20})
}
func BenchmarkFig5a_ZAB_w100(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 1})
}

// --- Figure 5b: Zipfian(0.99) skew ---

func BenchmarkFig5b_Hermes_w05(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.05, Zipf: true})
}
func BenchmarkFig5b_Hermes_w50(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.50, Zipf: true})
}
func BenchmarkFig5b_CRAQ_w05(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.05, Zipf: true})
}
func BenchmarkFig5b_CRAQ_w50(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.50, Zipf: true})
}
func BenchmarkFig5b_ZAB_w05(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 0.05, Zipf: true})
}

// --- Figure 6a: latency vs load at 5% writes (low / peak load points) ---

func BenchmarkFig6a_Hermes_load1(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.05, Sessions: 1})
}
func BenchmarkFig6a_Hermes_load16(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 0.05, Sessions: 16})
}
func BenchmarkFig6a_CRAQ_load1(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.05, Sessions: 1})
}
func BenchmarkFig6a_CRAQ_load16(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 5, WriteRatio: 0.05, Sessions: 16})
}
func BenchmarkFig6a_ZAB_load16(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 5, WriteRatio: 0.05, Sessions: 16})
}

// --- Figures 6b/6c: read/write latency split (write-latency benches) ---

func benchLatency(b *testing.B, sys bench.System, zipf bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := bench.Run(bench.Point{System: sys, Nodes: 5, WriteRatio: 0.20, Zipf: zipf, Seed: int64(i)}, quick())
		b.ReportMetric(float64(res.Read.Median())/1e3, "rd-p50us")
		b.ReportMetric(float64(res.Read.P99())/1e3, "rd-p99us")
		b.ReportMetric(float64(res.Write.Median())/1e3, "wr-p50us")
		b.ReportMetric(float64(res.Write.P99())/1e3, "wr-p99us")
	}
}

func BenchmarkFig6b_Hermes_uniform(b *testing.B) { benchLatency(b, bench.Hermes, false) }
func BenchmarkFig6b_CRAQ_uniform(b *testing.B)   { benchLatency(b, bench.CRAQ, false) }
func BenchmarkFig6c_Hermes_zipf(b *testing.B)    { benchLatency(b, bench.Hermes, true) }
func BenchmarkFig6c_CRAQ_zipf(b *testing.B)      { benchLatency(b, bench.CRAQ, true) }

// --- Figure 7: scalability across 3/5/7 replicas ---

func BenchmarkFig7_Hermes_n3_w01(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 3, WriteRatio: 0.01})
}
func BenchmarkFig7_Hermes_n7_w01(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 7, WriteRatio: 0.01})
}
func BenchmarkFig7_Hermes_n7_w20(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 7, WriteRatio: 0.20})
}
func BenchmarkFig7_CRAQ_n7_w20(b *testing.B) {
	point(b, bench.Point{System: bench.CRAQ, Nodes: 7, WriteRatio: 0.20})
}
func BenchmarkFig7_ZAB_n7_w20(b *testing.B) {
	point(b, bench.Point{System: bench.ZAB, Nodes: 7, WriteRatio: 0.20})
}

// --- Figure 8: write-only vs object size vs the Derecho-like baseline ---

func BenchmarkFig8_Hermes_32B(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 1, ValueSize: 32, PerByte: true})
}
func BenchmarkFig8_Hermes_1KB(b *testing.B) {
	point(b, bench.Point{System: bench.Hermes, Nodes: 5, WriteRatio: 1, ValueSize: 1024, PerByte: true})
}
func BenchmarkFig8_Derecho_32B(b *testing.B) {
	point(b, bench.Point{System: bench.Lockstep, Nodes: 5, WriteRatio: 1, ValueSize: 32, PerByte: true})
}
func BenchmarkFig8_Derecho_1KB(b *testing.B) {
	point(b, bench.Point{System: bench.Lockstep, Nodes: 5, WriteRatio: 1, ValueSize: 1024, PerByte: true})
}

// --- Figure 9: throughput under failure (dip + recovery) ---

func BenchmarkFig9_FailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Fig9(bench.Scale{Sessions: 2, Keys: 1 << 12})
		rates := out.Series["5%"]
		pre, dip, rec := 0.0, 0.0, 0.0
		if len(rates) > 25 {
			pre = avgOf(rates[3:9])
			dip = minimum(rates[11:14])
			rec = avgOf(rates[len(rates)-4:])
		}
		b.ReportMetric(pre/1e6, "pre-Mops")
		b.ReportMetric(dip/1e6, "dip-Mops")
		b.ReportMetric(rec/1e6, "rec-Mops")
	}
}

func avgOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minimum(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// --- Ablations (optimizations O1–O3 and NoLSC reads; see internal/README.md, "Simulator scale and ablations") ---

func BenchmarkAblationO1_VALElision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.AblationO1(quick())
		_ = tb
	}
}

func BenchmarkAblationO3_EarlyACKs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.AblationO3(quick())
		_ = tb
	}
}

func BenchmarkAblationNoLSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.AblationNoLSC(quick())
		_ = tb
	}
}
