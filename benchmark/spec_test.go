package main

import (
	"bytes"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/kvs"
	"repro/internal/proto"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the program list the same workloads and metrics, with
// the same units, under well-formed names.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || !name.MatchString(w.Name) || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (program: %q), why of %d characters", i, w.Name, workloads[i].Name, len(w.Why))
		}
	}
	check := func(kind string, listed []specMetric, units map[string]string) {
		seen := make(map[string]bool)
		for _, m := range listed {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: malformed or listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %q: unit %q in the spec, %q in the program", kind, m.Name, m.Unit, units[m.Name])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better %q", kind, m.Name, m.Better)
			}
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("%s metric %q is emitted but not in the spec", kind, n)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits)
	check("per-layer", spec.PerLayer, perLayerNames())
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(spec.PerLayer))
	}
	if spec.Paths[0] != "benchmark" || spec.Command[1] != "benchmark/run.sh" {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
}

// A dry run emits exactly the listed metrics, is correct and fails no op.
func TestDryRunEmitsListedMetrics(t *testing.T) {
	w, _ := findWorkload("mixed-hot")
	for trace, want := range []map[string]string{endToEndUnits, perLayerNames()} {
		r, err := runWorkload(w, options{seed: 3, seconds: 1, trace: trace, dry: true})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d: %s", trace, r.Correct, r.Attempted, r.Failed, r.problem)
		}
		for n, u := range want {
			if m, ok := r.Metrics[n]; !ok || m.Unit != u {
				t.Errorf("trace %d: metric %q missing or in unit %q, want %q", trace, n, m.Unit, u)
			}
		}
		for n := range r.Metrics {
			if _, ok := want[n]; !ok {
				t.Errorf("trace %d: metric %q emitted but not listed", trace, n)
			}
		}
		var out bytes.Buffer
		printResult(&out, r)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
			t.Errorf("trace %d: last line %q", trace, last)
		}
	}
}

// Damaging one replica's copy of one key makes the run incorrect.
func TestCorruptedReplicaFailsTheCheck(t *testing.T) {
	corruptReplica = func(tb *testbed) {
		key := proto.Key(5)
		n := tb.nodes[2]
		st := n.Shard(int(proto.ShardOf(key, n.Shards()))).Hermes().Store()
		e, _ := st.Get(key)
		v := e.Value.Clone()
		v[len(v)-1] ^= 1
		st.Update(key, kvs.Entry{Value: v, TS: e.TS, State: kvs.Valid})
	}
	defer func() { corruptReplica = nil }()
	w, _ := findWorkload("mixed-hot")
	r, err := runWorkload(w, options{seed: 3, seconds: 0.5, dry: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || !strings.Contains(r.problem, "key 5 differs") {
		t.Errorf("correct=%v, problem %q: want the difference on key 5 reported", r.Correct, r.problem)
	}
	if code := run([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}

func TestCheckComparesAgainstBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput float64, failed uint64) string {
		p := filepath.Join(dir, name)
		r := result{Workload: "mixed-hot", Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"sat_tput_ops_s": {Value: tput, Unit: "1/s"}}}
		if err := writeResults(options{out: p}, []result{r}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"sat_tput_ops_s","unit":"1/s","better":"higher","bound":0.08}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.json", 100000, 0)
	for _, c := range []struct {
		name   string
		tput   float64
		failed uint64
		want   int
	}{
		{"same.json", 100000, 0, 0},
		{"within.json", 93000, 0, 0},
		{"better.json", 150000, 0, 0},
		{"breach.json", 91000, 0, 1},
		{"failed.json", 100000, 1, 1},
	} {
		if got := checkFiles(spec, base, write(c.name, c.tput, c.failed), io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSourcesAreFormatted(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
}
