package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how far cand is worse than base, as a share of base.
func worsening(m specMetric, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// checkFiles compares two -out files, end-to-end metric by metric and
// workload by workload, against the bounds of the spec. It returns 1 when the
// candidate breaches a bound, failed an op or was found incorrect.
func checkFiles(specPath, basePath, candPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base, cand resultsFile
	for path, into := range map[string]any{specPath: &spec, basePath: &base, candPath: &cand} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(cand.Results))
	for n := range cand.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	breaches := 0
	for _, w := range names {
		c := cand.Results[w]
		b, ok := base.Results[w]
		if !ok {
			fmt.Fprintf(stdout, "%s: not in the base file, skipped\n", w)
			continue
		}
		if !c.Correct || c.Failed > 0 {
			fmt.Fprintf(stdout, "%s: BREACH candidate incorrect or failed %d ops\n", w, c.Failed)
			breaches++
		}
		for _, m := range spec.EndToEnd {
			bv, cv := b.Metrics[m.Name], c.Metrics[m.Name]
			worse := worsening(m, bv.Value, cv.Value)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%s %s: %.6g -> %.6g %s (%+.1f%% worse, bound %.0f%%) %s\n",
				w, m.Name, bv.Value, cv.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breaches\n", breaches)
		return 1
	}
	return 0
}
