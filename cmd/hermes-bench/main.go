// Command hermes-bench regenerates the paper's evaluation (§6): every
// figure and table, plus the ablation benches described in
// internal/README.md ("Simulator scale and ablations").
//
// Usage:
//
//	hermes-bench -exp all            # everything (takes a while)
//	hermes-bench -exp fig5a          # one experiment
//	hermes-bench -exp fig9 -quick    # reduced scale
//
// Experiments: fig5a fig5b fig6a fig6b fig6c fig7 fig8 fig9 table2 shards
// reads reconfig clients gray values ablation-o1 ablation-o2 ablation-o3
// ablation-nolsc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma-separated, or 'all')")
	quick := flag.Bool("quick", false, "reduced scale for smoke runs")
	flag.Parse()

	sc := bench.FullScale()
	if *quick {
		sc = bench.QuickScale()
	}

	runners := []struct {
		name string
		note string
		fn   func() fmt.Stringer
	}{
		{"table2", "Feature comparison of evaluated systems (paper Table 2)",
			func() fmt.Stringer { return bench.Table2() }},
		{"fig5a", "Throughput vs write ratio, uniform, 5 nodes (paper Fig. 5a)",
			func() fmt.Stringer { return bench.Fig5a(sc) }},
		{"fig5b", "Throughput vs write ratio, Zipfian 0.99, 5 nodes (paper Fig. 5b)",
			func() fmt.Stringer { return bench.Fig5b(sc) }},
		{"fig6a", "Latency vs throughput at 5% writes (paper Fig. 6a)",
			func() fmt.Stringer { return bench.Fig6a(sc) }},
		{"fig6b", "Read/write latency vs write ratio, uniform (paper Fig. 6b)",
			func() fmt.Stringer { return bench.Fig6b(sc) }},
		{"fig6c", "Read/write latency vs write ratio, Zipfian 0.99 (paper Fig. 6c)",
			func() fmt.Stringer { return bench.Fig6c(sc) }},
		{"fig7", "Scalability across 3/5/7 replicas (paper Fig. 7)",
			func() fmt.Stringer { return bench.Fig7(sc) }},
		{"fig8", "Write-only throughput vs object size vs Derecho-like (paper Fig. 8)",
			func() fmt.Stringer { return bench.Fig8(sc) }},
		{"fig9", "Throughput under a node failure with RM recovery (paper Fig. 9)",
			func() fmt.Stringer { r := bench.Fig9(sc); return r.Table }},
		{"shards", "Write-throughput scaling across per-node engine shards, 1->8 workers (§4.1)",
			func() fmt.Stringer { return bench.ShardScaling(sc) }},
		{"reads", "LIVE lock-free read fast path: throughput vs client goroutines with hit rate (§4.1)",
			func() fmt.Stringer { return bench.ReadScaling(sc) }},
		{"reconfig", "LIVE reconfiguration availability: per-shard install storms + staggered vs simultaneous full-view rollouts (§3.4-3.6)",
			func() fmt.Stringer { return bench.ReconfigAvailability(sc) }},
		{"clients", "LIVE wire serving layer: pipelined TCP sessions vs the in-process fast path, with p50/p99/p999 (§6)",
			func() fmt.Stringer { return bench.Clients(sc) }},
		{"gray", "Gray failures on the chaos harness: asym partitions, slow-but-alive, clock skew, burst reorder, epoch-gossip healing",
			func() fmt.Stringer { return bench.Gray(sc) }},
		{"values", "Zero-copy value path: allocs/op + ops/s for INV adoption, retained reads and response encode; writes " + bench.ValuesJSON,
			func() fmt.Stringer { return bench.Values(sc) }},
		{"ablation-o1", "O1: VAL elision savings (paper §3.3)",
			func() fmt.Stringer { return bench.AblationO1(sc) }},
		{"ablation-o2", "O2: virtual node ID fairness (paper §3.3)",
			func() fmt.Stringer { return bench.AblationO2(sc) }},
		{"ablation-o3", "O3: broadcast-ACK early validation (paper §3.3)",
			func() fmt.Stringer { return bench.AblationO3(sc) }},
		{"ablation-nolsc", "§8: reads without loosely synchronized clocks",
			func() fmt.Stringer { return bench.AblationNoLSC(sc) }},
	}

	want := map[string]bool{}
	all := *exp == "all"
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.name] {
			continue
		}
		ran++
		fmt.Printf("=== %s: %s ===\n", r.name, r.note)
		start := time.Now()
		fmt.Println(r.fn().String())
		fmt.Printf("(%s in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; see -h\n", *exp)
		os.Exit(2)
	}
}
