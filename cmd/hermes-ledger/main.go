// Command hermes-ledger keeps BENCH_gate.json, the append-only ledger of the
// benchmark gate's paired runs: one row per measured change, holding every
// run, so a performance claim is data in the tree rather than a table typed
// into CHANGES.md.
//
// Usage:
//
//	hermes-ledger add -commit ID -parent ID p1.json c1.json p2.json c2.json ...
//	hermes-ledger table [-commit ID]
//
// add reads `benchmark/run.sh --trace 0 --out` files given as pairs, parent
// run first, pairs in the order they ran; both files of a pair share a seed
// and a workload set. It appends one row: commit, parent, host shape, Go
// version, seeds and, per workload and end-to-end metric of BENCHMARK.json,
// each side's median and quartiles, the change's wins and every raw run.
// table renders a row (the last, or the one named by -commit) as markdown.
// A row appended in the commit it measures cannot name that commit's hash,
// so -commit is a label there and -parent pins the row to its place in
// history.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Row is one measured change. Runs and seeds are in the order they ran.
type Row struct {
	Commit    string            `json:"commit"`
	Parent    string            `json:"parent"`
	Host      map[string]string `json:"host"`
	Go        string            `json:"go"`
	Seconds   float64           `json:"seconds"`
	Workloads []Workload        `json:"workloads"`
}

// Workload holds one workload's pairs.
type Workload struct {
	Name      string    `json:"name"`
	Seeds     []int64   `json:"seeds"`
	Failed    [2]uint64 `json:"failed"`    // ops failed over all runs: parent, change
	Incorrect [2]int    `json:"incorrect"` // runs the benchmark's checks found incorrect: parent, change
	Metrics   []Metric  `json:"metrics"`
}

// Metric is one end-to-end metric's pairs.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Parent Side   `json:"parent"`
	Change Side   `json:"change"`
	Wins   int    `json:"wins"` // pairs the change read better; ties count for neither side
}

// Side summarises one tree's runs of a metric.
type Side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// outFile is the part of a benchmark --out file the ledger reads.
type outFile struct {
	Host    map[string]string    `json:"host"`
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"seconds"`
	Trace   int                  `json:"trace"`
	Results map[string]outResult `json:"results"`
}

type outResult struct {
	Correct bool   `json:"correct"`
	Failed  uint64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-ledger:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: hermes-ledger add|table [flags] ...")
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	ledger := fs.String("ledger", "BENCH_gate.json", "ledger file")
	commit := fs.String("commit", "", "the measured change (add: required; table: default the last row)")
	switch args[0] {
	case "add":
		parent := fs.String("parent", "", "the commit the change was measured against")
		specPath := fs.String("spec", "BENCHMARK.json", "benchmark description naming the end-to-end metrics")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *commit == "" || *parent == "" {
			return errors.New("add: -commit and -parent are required")
		}
		var sp spec
		if err := readJSON(*specPath, &sp); err != nil {
			return err
		}
		row, err := newRow(sp, *commit, *parent, fs.Args())
		if err != nil {
			return err
		}
		rows, err := readLedger(*ledger)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.Commit == row.Commit && r.Parent == row.Parent {
				return fmt.Errorf("add: %s already has a row for %s on %s", *ledger, row.Commit, row.Parent)
			}
		}
		b, err := json.MarshalIndent(append(rows, row), "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*ledger, append(b, '\n'), 0o644)
	case "table":
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		rows, err := readLedger(*ledger)
		if err != nil {
			return err
		}
		for i := len(rows) - 1; i >= 0; i-- {
			if *commit == "" || rows[i].Commit == *commit {
				_, err := io.WriteString(stdout, rows[i].Table())
				return err
			}
		}
		return fmt.Errorf("table: no row for %q in %s", *commit, *ledger)
	}
	return fmt.Errorf("unknown command %q: want add or table", args[0])
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

// readLedger returns the ledger's rows; a missing ledger has none.
func readLedger(path string) ([]Row, error) {
	var rows []Row
	if err := readJSON(path, &rows); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return rows, nil
}

// newRow builds a row from out files given as parent/change pairs.
func newRow(sp spec, commit, parent string, paths []string) (Row, error) {
	if len(paths) == 0 || len(paths)%2 != 0 {
		return Row{}, fmt.Errorf("add: %d out files, want parent/change pairs", len(paths))
	}
	files := make([]outFile, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &files[i]); err != nil {
			return Row{}, err
		}
		f := files[i]
		if f.Trace != 0 {
			return Row{}, fmt.Errorf("%s: a traced run (--trace 1) has no end-to-end metrics", p)
		}
		ref := files[0]
		for _, k := range []string{"nproc", "gomaxprocs", "go", "kernel"} {
			if f.Host[k] != ref.Host[k] {
				return Row{}, fmt.Errorf("%s: host %s %q, but %s has %q", p, k, f.Host[k], paths[0], ref.Host[k])
			}
		}
		if f.Seconds != ref.Seconds {
			return Row{}, fmt.Errorf("%s: %g s runs, but %s has %g s", p, f.Seconds, paths[0], ref.Seconds)
		}
	}
	row := Row{
		Commit: commit, Parent: parent, Go: files[0].Host["go"], Seconds: files[0].Seconds,
		Host: map[string]string{"nproc": files[0].Host["nproc"], "gomaxprocs": files[0].Host["gomaxprocs"], "kernel": files[0].Host["kernel"]},
	}
	for _, w := range sp.Workloads {
		wl := Workload{Name: w.Name}
		runs := [2][][]float64{make([][]float64, len(sp.EndToEnd)), make([][]float64, len(sp.EndToEnd))} // side, metric, pair
		for i := 0; i < len(files); i += 2 {
			p, c := files[i], files[i+1]
			pr, inP := p.Results[w.Name]
			cr, inC := c.Results[w.Name]
			if !inP && !inC {
				continue
			}
			if !inP || !inC || p.Seed != c.Seed {
				return Row{}, fmt.Errorf("%s and %s are not a pair for %s", paths[i], paths[i+1], w.Name)
			}
			wl.Seeds = append(wl.Seeds, p.Seed)
			for side, res := range [2]outResult{pr, cr} {
				wl.Failed[side] += res.Failed
				if !res.Correct {
					wl.Incorrect[side]++
				}
				for j, m := range sp.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return Row{}, fmt.Errorf("%s: %s has no %s", paths[i+side], w.Name, m.Name)
					}
					runs[side][j] = append(runs[side][j], v.Value)
				}
			}
		}
		if len(wl.Seeds) == 0 {
			continue
		}
		for j, m := range sp.EndToEnd {
			mt := Metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Parent: summarise(runs[0][j]), Change: summarise(runs[1][j])}
			for k, pv := range runs[0][j] {
				if cv := runs[1][j][k]; cv != pv && (cv > pv) == (m.Better == "higher") {
					mt.Wins++
				}
			}
			wl.Metrics = append(wl.Metrics, mt)
		}
		row.Workloads = append(row.Workloads, wl)
	}
	if len(row.Workloads) == 0 {
		return Row{}, errors.New("add: the out files hold no workload of the spec")
	}
	return row, nil
}

func summarise(runs []float64) Side {
	s := append([]float64(nil), runs...)
	sort.Float64s(s)
	return Side{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Runs: runs}
}

// quantile interpolates linearly between the order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Table renders the row as the markdown table CHANGES.md quotes: per
// workload and metric, each side's median with its quartiles, the change of
// the median, the change's wins, and whether the medians lie further apart
// than the parent's interquartile range.
func (r Row) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s against %s: %g s runs, %s, nproc %s, GOMAXPROCS %s, kernel %s\n\n",
		r.Commit, r.Parent, r.Seconds, r.Go, r.Host["nproc"], r.Host["gomaxprocs"], r.Host["kernel"])
	b.WriteString("| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | wins | beyond parent IQR |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, w := range r.Workloads {
		for _, m := range w.Metrics {
			beyond := "no"
			if math.Abs(m.Change.Median-m.Parent.Median) > m.Parent.Q3-m.Parent.Q1 {
				beyond = "yes"
			}
			delta := "n/a"
			if m.Parent.Median != 0 {
				delta = fmt.Sprintf("%+.1f %%", 100*(m.Change.Median-m.Parent.Median)/m.Parent.Median)
			}
			fmt.Fprintf(&b, "| `%s` | `%s` (%s) | %s | %s | %s | %d/%d | %s |\n",
				w.Name, m.Name, m.Unit, side(m.Parent), side(m.Change), delta, m.Wins, len(w.Seeds), beyond)
		}
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(&b, "\n`%s`: seeds %s; failed ops %d parent, %d change; incorrect runs %d parent, %d change.",
			w.Name, seeds(w.Seeds), w.Failed[0], w.Failed[1], w.Incorrect[0], w.Incorrect[1])
	}
	b.WriteString("\n")
	return b.String()
}

func side(s Side) string {
	return fmt.Sprintf("%s [%s, %s]", num(s.Median), num(s.Q1), num(s.Q3))
}

func seeds(s []int64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, " ")
}

// num prints a value to about four significant digits without an exponent.
func num(v float64) string {
	switch a := math.Abs(v); {
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprintf("%.4f", v)
}
