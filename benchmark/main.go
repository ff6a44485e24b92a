// Command benchmark is this repository's performance gate: it stands up the
// deployment shape of hermes-node in one process, drives it over the client
// wire protocol, checks what the cluster answered and stored, and reports the
// metrics BENCHMARK.json lists. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	commit   string
	dry      bool
}

// result is one workload's run.
type result struct {
	Workload              string            `json:"workload"`
	Correct               bool              `json:"correct"`
	Attempted             uint64            `json:"attempted"`
	Failed                uint64            `json:"failed"`
	Metrics               map[string]metric `json:"metrics"`
	problem               string
	wallSpeeds, cpuSpeeds []float64 // the run's probes of the host; -trace 0 only
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated op streams")
	fs.Float64Var(&o.seconds, "seconds", 26, "length of the measured part of a run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", "", "also write the results to this JSON file")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this file")
	fs.StringVar(&o.commit, "commit", "", "commit id to record in the -out file")
	fs.BoolVar(&o.dry, "dry", false, "smoke run: one second, small keyspace, one set-up")
	check := fs.Bool("check", false, "compare two -out files (base, candidate) against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description used by -check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -check base.json candidate.json")
			return 2
		}
		return checkFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.trace != 0 && o.trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1 and -seconds is positive")
		return 2
	}
	if o.dry {
		o.seconds = min(o.seconds, 1)
	}
	var results []result
	code := 0
	if o.workload == "all" {
		// One process per workload, as the benchmark's driver runs them:
		// peak memory and collector state are per process.
		for _, w := range workloads {
			r, err := runChild(w.Name, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if !r.Correct {
				code = 1
			}
			results = append(results, r)
		}
	} else {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		printResult(stdout, r)
		if !r.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.Name, r.problem)
			code = 1
		}
		results = append(results, r)
	}
	if o.out != "" {
		if err := writeResults(o, results); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a process of its own with the parent's
// flags, passes its output through and returns the result it printed last.
func runChild(workload string, args []string, stdout, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	// Later flags win: the child sees one workload and writes no file.
	cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", workload, "-out", "")...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	r := result{Workload: workload}
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("child printed no result: %w", err)
	}
	return r, nil
}

// printResult writes "name unit value" lines (after the value, where a metric
// has them: the extremes over its windows, the value as timed, before it was
// brought to reference host speed, and the sample count), the host's speed
// over the run and, last, the JSON object the benchmark contract asks for.
func printResult(w io.Writer, r result) {
	fmt.Fprintf(w, "workload %s\n", r.Workload)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g", n, m.Unit, m.Value)
		if m.Lo != m.Hi {
			fmt.Fprintf(w, " windows[%.6g..%.6g]", m.Lo, m.Hi)
		}
		if m.Raw != 0 {
			fmt.Fprintf(w, " as-timed=%.6g", m.Raw)
		}
		if m.N > 0 {
			fmt.Fprintf(w, " samples=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, h := range []struct {
		clock  string
		speeds []float64
	}{{"wall", r.wallSpeeds}, {"cpu", r.cpuSpeeds}} {
		if s := median(h.speeds); s.value != 0 {
			fmt.Fprintf(w, "host_speed_%s ratio %.6g probes[%.6g..%.6g]\n", h.clock, s.value, s.lo, s.hi)
		}
	}
	fmt.Fprintf(w, "correct %v\n", r.Correct)
	line, _ := json.Marshal(r) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// MarshalJSON leaves the workload name out of the contract's last line.
func (r result) MarshalJSON() ([]byte, error) {
	type contract struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	return json.Marshal(contract{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// resultsFile is what -out writes and -check reads.
type resultsFile struct {
	Host    map[string]string `json:"host"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   int               `json:"trace"`
	Results map[string]result `json:"results"`
}

func writeResults(o options, results []result) error {
	var uts syscall.Utsname
	kernel := ""
	if syscall.Uname(&uts) == nil {
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			kernel += string(rune(c))
		}
	}
	f := resultsFile{
		Host: map[string]string{
			"commit":     o.commit,
			"nproc":      fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
			"kernel":     kernel,
		},
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Results: make(map[string]result),
	}
	for _, r := range results {
		f.Results[r.Workload] = r
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(b, '\n'), 0o644)
}

// plan splits the measured seconds of a run into its parts.
type plan struct {
	setups, maxSetups            int // per round: at least setups; more, up to maxSetups, while setupTime lasts
	setupTime                    time.Duration
	warm, sat, lat               time.Duration
	probe                        time.Duration // one measurement of the host's speed
	untraced, depth1, rung, audt time.Duration
	auditOps                     int
}

func planFor(o options) plan {
	t := time.Duration(o.seconds * float64(time.Second))
	p := plan{setups: 2, maxSetups: 12, setupTime: 1500 * time.Millisecond, audt: time.Second, auditOps: 600}
	if o.dry {
		p.setups, p.maxSetups, p.audt, p.auditOps = 1, 1, 200*time.Millisecond, 100
	}
	if o.trace == 0 {
		// A probe of the host's speed before, between and after the windows
		// takes 18 % of the time.
		p.warm, p.sat, p.lat = t/10, t*36/100, t*36/100
		p.probe = t * 18 / 100 / (2*pairs + 1)
		return p
	}
	// The traced run spends a third of its time on the isolated ladder and
	// probes the host's speed four times.
	p.setups, p.maxSetups = 1, 1
	p.warm, p.untraced, p.sat, p.lat, p.depth1 = t/10, t*13/100, t*20/100, t*20/100, t*5/100
	p.probe = t / 200
	p.rung = t * 30 / 100 / time.Duration(len(ladder))
	return p
}

// peakRSSMiB is the process's peak resident set so far, less the host probe's
// table, which is not the program's.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss)/1024 - probeTableMiB, nil // KiB on Linux
}

func runWorkload(w workloadSpec, o options) (result, error) {
	if o.dry {
		w.Keys = min(w.Keys, 1024)
	}
	p := planFor(o)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}

	probe, err := newHostProbe()
	if err != nil {
		return result{}, err
	}
	defer probe.close()
	// around probes the host and returns the mean of this probe and the one
	// before: the speed around whatever ran in between.
	var probes []hostSpeed
	around := func() (hostSpeed, error) {
		v, err := probe.speed(p.probe)
		if err != nil {
			return hostSpeed{}, err
		}
		probes = append(probes, v)
		last := probes[max(len(probes)-2, 0)]
		return hostSpeed{wall: (last.wall + v.wall) / 2, cpu: (last.cpu + v.cpu) / 2}, nil
	}

	// Set-up, several times over: its time is a metric of its own, and one
	// bring-up is too short to time steadily. Small keyspaces come up in
	// milliseconds, so they are set up more often, within the same time. Half
	// of the set-ups are timed here and half after the run (moreSetups). Like
	// every timed window, each is bracketed by probes of the host's speed.
	var tb *testbed
	var setups, setupsAtRef []float64
	var loadedRSS float64
	moreSetups := func() error {
		if _, err := around(); err != nil {
			return err
		}
		for begin, n := time.Now(), 0; n < p.setups || (n < p.maxSetups && time.Since(begin) < p.setupTime); n++ {
			if tb != nil {
				tb.close()
			}
			start := time.Now()
			var err error
			if tb, err = newTestbed(w, tr); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			took := time.Since(start).Seconds()
			if len(setups) == 0 {
				// The one point of a run where the work done so far does
				// not depend on how fast the host is.
				if loadedRSS, err = peakRSSMiB(); err != nil {
					return err
				}
			}
			speed, err := around()
			if err != nil {
				return err
			}
			setups, setupsAtRef = append(setups, took), append(setupsAtRef, took*speed.wall)
		}
		return nil
	}
	if err := moreSetups(); err != nil {
		return result{}, err
	}
	defer func() {
		if tb != nil {
			tb.close()
		}
	}()

	d := newDriver(w, o.seed, tb)
	r := result{Workload: w.Name, Metrics: make(map[string]metric)}
	put := func(name string, s summary) {
		r.Metrics[name] = metric{Unit: endToEndUnits[name], Value: s.value, Lo: s.lo, Hi: s.hi, Raw: s.raw, N: s.n}
	}

	d.window(satDepth, p.warm, sessions)
	if o.trace == 0 {
		// Saturated and latency windows alternate, with a probe of the
		// host's speed before and after each, so that every window is
		// measured against reference work done next to it.
		if _, err := around(); err != nil {
			return result{}, err
		}
		var sat, lat phase
		for i := 0; i < 2*pairs; i++ {
			var win *window
			if i%2 == 0 {
				win = d.window(satDepth, p.sat/pairs, sessions)
				sat = append(sat, win)
			} else {
				win = d.window(latDepth, p.lat/pairs, sessions)
				lat = append(lat, win)
			}
			if win.speed, err = around(); err != nil {
				return result{}, err
			}
		}
		put("sat_tput_ops_s", sat.throughput())
		put("sat_cpu_us_per_op", sat.cpuPerOp())
		put("lat_read_p50_us", lat.latency(classRead, 0.5))
		put("lat_update_p50_us", lat.latency(classUpdate, 0.5))
	} else if err := tracedPhases(d, tb, p, around, r.Metrics); err != nil {
		return result{}, err
	}

	// Correctness: what the replicas hold, then a linearizability audit.
	var problems []string
	if d.unanswered > 0 {
		problems = append(problems, fmt.Sprintf("%d ops unanswered 5 s after their window ended", d.unanswered))
	}
	if err := d.verifyReplicas(tb); err != nil {
		problems = append(problems, err.Error())
	}
	auditOps, err := audit(tb.clients, w.Keys, o.seed, p.audt, p.auditOps)
	if err != nil {
		problems = append(problems, err.Error())
	}
	attempted, failed := d.counts()
	r.Attempted, r.Failed = attempted+uint64(auditOps), failed
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed", failed, attempted))
	}
	if o.trace == 1 {
		r.Metrics["client.fail_frac"] = metric{Unit: perLayerUnits["client.fail_frac"], Value: float64(failed) / float64(attempted)}
		peak, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		r.Metrics["proc.rss_peak_mb"] = metric{Unit: perLayerUnits["proc.rss_peak_mb"], Value: peak}
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return result{}, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	tb.close()
	tb = nil

	if o.trace == 1 {
		if err := runLadder(w, p.rung, r.Metrics); err != nil {
			return result{}, err
		}
		budget(r.Metrics)
	} else {
		put("rss_loaded_mb", summary{value: loadedRSS})
		if err := moreSetups(); err != nil {
			return result{}, err
		}
		atRef := median(setupsAtRef)
		atRef.raw = median(setups).value
		put("setup_s", atRef)
		for _, v := range probes {
			r.wallSpeeds, r.cpuSpeeds = append(r.wallSpeeds, v.wall), append(r.cpuSpeeds, v.cpu)
		}
	}
	r.Correct = len(problems) == 0
	if !r.Correct {
		r.problem = strings.Join(problems, "; ")
	}
	return r, nil
}
