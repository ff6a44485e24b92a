// Command hermes-bench regenerates the paper's evaluation (§6) on the
// simulated cluster: every figure and table, plus the ablation benches
// described in internal/README.md ("Simulator scale and ablations"). Every
// experiment runs in virtual time, so two runs print identical tables; the
// live runtime is timed by benchmark/ alone.
//
// Usage:
//
//	hermes-bench -exp all            # everything (takes a while)
//	hermes-bench -exp fig5a          # one experiment
//	hermes-bench -exp fig9 -quick    # reduced scale
//
// Experiments: table2 fig5a fig5b fig6a fig6b fig6c fig7 fig8 fig9 shards
// gray ablation-o2 ablation-nolsc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiment is one row of the runner table: -exp selects rows by name.
type experiment struct {
	name string
	note string
	fn   func(bench.Scale) fmt.Stringer
}

var experiments = []experiment{
	{"table2", "Feature comparison of evaluated systems (paper Table 2)",
		func(bench.Scale) fmt.Stringer { return bench.Table2() }},
	{"fig5a", "Throughput vs write ratio, uniform, 5 nodes (paper Fig. 5a)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig5a(sc) }},
	{"fig5b", "Throughput vs write ratio, Zipfian 0.99, 5 nodes (paper Fig. 5b)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig5b(sc) }},
	{"fig6a", "Latency vs throughput at 5% writes (paper Fig. 6a)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig6a(sc) }},
	{"fig6b", "Read/write latency vs write ratio, uniform (paper Fig. 6b)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig6b(sc) }},
	{"fig6c", "Read/write latency vs write ratio, Zipfian 0.99 (paper Fig. 6c)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig6c(sc) }},
	{"fig7", "Scalability across 3/5/7 replicas (paper Fig. 7)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig7(sc) }},
	{"fig8", "Write-only throughput vs object size vs Derecho-like (paper Fig. 8)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig8(sc) }},
	{"fig9", "Throughput under a node failure with RM recovery (paper Fig. 9)",
		func(sc bench.Scale) fmt.Stringer { return bench.Fig9(sc).Table }},
	{"shards", "Write-throughput scaling across per-node engine shards, 1->8 workers (§4.1)",
		func(sc bench.Scale) fmt.Stringer { return bench.ShardScaling(sc) }},
	{"gray", "Gray failures on the chaos harness: asym partitions, slow-but-alive, clock skew, burst reorder, epoch-gossip healing",
		func(sc bench.Scale) fmt.Stringer { return bench.Gray(sc) }},
	{"ablation-o2", "O2: virtual node ID fairness (paper §3.3)",
		func(sc bench.Scale) fmt.Stringer { return bench.AblationO2(sc) }},
	{"ablation-nolsc", "§8: reads without loosely synchronized clocks",
		func(sc bench.Scale) fmt.Stringer { return bench.AblationNoLSC(sc) }},
}

// pick resolves the -exp value against the table: "all", or a comma list in
// which every name must be a row. The selection comes back in table order.
func pick(exp string) ([]experiment, error) {
	if exp == "all" {
		return experiments, nil
	}
	row := map[string]int{}
	valid := []string{"all"}
	for i, r := range experiments {
		row[r.name] = i
		valid = append(valid, r.name)
	}
	want := make([]bool, len(experiments))
	for _, e := range strings.Split(exp, ",") {
		e = strings.TrimSpace(e)
		i, ok := row[e]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", e, strings.Join(valid, " "))
		}
		want[i] = true
	}
	var sel []experiment
	for i, r := range experiments {
		if want[i] {
			sel = append(sel, r)
		}
	}
	return sel, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma-separated, or 'all')")
	quick := flag.Bool("quick", false, "reduced scale for smoke runs")
	flag.Parse()

	sc := bench.FullScale()
	if *quick {
		sc = bench.QuickScale()
	}

	sel, err := pick(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, r := range sel {
		fmt.Printf("=== %s: %s ===\n", r.name, r.note)
		start := time.Now()
		fmt.Println(r.fn(sc).String())
		fmt.Printf("(%s in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
}
