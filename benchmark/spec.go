package main

// The benchmark's fixed shape: cluster parameters, workloads and metric
// names. BENCHMARK.json at the repo root lists the same workloads and
// metrics (spec_test.go keeps the two in step).

import "time"

const (
	replicas = 3                     // N
	shards   = 2                     // W: one engine per core of the reference sandbox
	mlt      = 50 * time.Millisecond // message-loss timeout, hermes-node's default
	sessions = 2                     // session i dials node i; one issuing goroutine each

	satDepth = 32 // outstanding ops per session in the saturated phase
	latDepth = 4  // outstanding ops per session in the latency phase
	pairs    = 24 // saturated and latency windows of a -trace 0 run, alternating; a metric is the median of its per-window values
	windows  = 5  // windows per phase of a -trace 1 run

	auditKeys = 16 // fresh keys the linearizability audit runs on
)

// workloadSpec is one traffic mix. No RMWs: in the timed phases any status
// other than OK is a failure.
type workloadSpec struct {
	Name      string
	ReadFrac  float64
	Keys      uint64
	Zipf      bool // Zipfian 0.99, else uniform
	ValueSize int
}

var workloads = []workloadSpec{
	{Name: "read-heavy-zipf", ReadFrac: 0.95, Keys: 65536, Zipf: true, ValueSize: 32},
	{Name: "write-heavy-uniform", ReadFrac: 0.05, Keys: 65536, Zipf: false, ValueSize: 32},
	{Name: "mixed-hot", ReadFrac: 0.50, Keys: 1024, Zipf: true, ValueSize: 32},
	{Name: "large-value", ReadFrac: 0.50, Keys: 4096, Zipf: false, ValueSize: 4096},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported number. Lo/Hi are the smallest and largest of the
// per-window values it was chosen from (both zero otherwise); Raw is the value
// as timed where Value is at reference host speed; N is the number of samples
// behind a latency percentile.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Lo    float64 `json:"-"`
	Hi    float64 `json:"-"`
	Raw   float64 `json:"-"`
	N     int     `json:"-"`
}

// endToEndUnits names every end-to-end metric (printed with -trace 0).
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"sat_tput_ops_s":    "1/s",
	"sat_cpu_us_per_op": "us",
	"lat_read_p50_us":   "us",
	"lat_update_p50_us": "us",
	"rss_loaded_mb":     "MiB",
}

// perLayerUnits names every per-layer metric (printed with -trace 1) other
// than the rungs of the ladder (ladder.go), which perLayerNames adds.
var perLayerUnits = map[string]string{
	"client.do_call_us":               "us",
	"client.sat_read_p99_us":          "us",
	"client.sat_update_p99_us":        "us",
	"client.lat_read_p99_us":          "us",
	"client.lat_update_p99_us":        "us",
	"client.lat_read_p999_us":         "us",
	"client.fail_frac":                "ratio",
	"server.readlocal_us":             "us",
	"server.submit_us_p50":            "us",
	"server.submit_us_p99":            "us",
	"server.wire_self_us":             "us",
	"server.fastread_frac":            "ratio",
	"server.killed_sessions":          "count",
	"transport.inv_ack_rtt_us_p50":    "us",
	"transport.inv_ack_rtt_us_p99":    "us",
	"transport.send_call_us":          "us",
	"transport.sends_per_update":      "ratio",
	"transport.msgs_per_update":       "ratio",
	"transport.bytes_per_update":      "B",
	"cluster.coord_self_us":           "us",
	"cluster.coalesce_msgs_per_batch": "ratio",
	"cluster.coalesce_single_frac":    "ratio",
	"cluster.coalesce_dropped":        "count",
	"cluster.read_fast_hit_frac":      "ratio",
	"cluster.shard_load_skew":         "ratio",
	"core.stalled_read_frac":          "ratio",
	"core.invs_per_update":            "ratio",
	"core.acks_per_update":            "ratio",
	"core.vals_per_update":            "ratio",
	"core.retransmits":                "count",
	"core.replays":                    "count",
	"proc.allocs_per_op":              "ratio",
	"proc.alloc_bytes_per_op":         "B",
	"proc.gc_cycles":                  "count",
	"proc.gc_pause_ms":                "ms",
	"proc.rss_peak_mb":                "MiB",
	"trace.overhead_frac":             "ratio",
	"trace.spans_dropped":             "count",
	"host.wall_speed":                 "ratio",
	"host.cpu_speed":                  "ratio",
	"wire.depth1_read_us":             "us",
	"wire.depth1_write_us":            "us",
	"budget.read_gap_frac":            "ratio",
	"budget.write_gap_frac":           "ratio",
}

// perLayerNames returns every per-layer metric name with its unit.
func perLayerNames() map[string]string {
	out := make(map[string]string, len(perLayerUnits)+2*len(ladder))
	for n, u := range perLayerUnits {
		out[n] = u
	}
	for _, r := range ladder {
		out[r.name] = r.unit
		out[r.name+".allocs"] = "ratio"
	}
	return out
}
