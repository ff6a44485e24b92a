// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster. Each figure has one entry point
// returning a stats.Table whose rows mirror the paper's series; the
// cmd/hermes-bench binary prints them, and the repository-root bench_test.go
// wraps them in testing.B benchmarks at reduced scale.
//
// Absolute numbers are simulator-scale (see internal/README.md, "Simulator
// scale and ablations"); what must match the paper is the *shape*:
// orderings, ratios and crossovers.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/craq"
	"repro/internal/lockstep"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zab"
)

// System selects a protocol under test.
type System uint8

const (
	// Hermes is HermesKV: local reads, decentralized inter-key-concurrent
	// invalidating writes: the protocol hermes-node ships.
	Hermes System = iota
	// CRAQ is rCRAQ: chain replication with apportioned queries.
	CRAQ
	// ZAB is rZAB: leader-serialized atomic broadcast, SC local reads.
	ZAB
	// Lockstep is the Derecho-like round-based total order (§6.5).
	Lockstep
)

func (s System) String() string {
	switch s {
	case Hermes:
		return "HermesKV"
	case CRAQ:
		return "rCRAQ"
	case ZAB:
		return "rZAB"
	case Lockstep:
		return "Derecho-like"
	default:
		return "system(?)"
	}
}

// protocolMLT is generous: the benchmark network is lossless, so timeouts
// exist only as a safety net and must not fire under queuing delay.
const protocolMLT = 10 * time.Millisecond

// Factory returns the sim factory for a system.
func Factory(s System) sim.Factory {
	switch s {
	case Hermes:
		return HermesFactory(nil)
	case CRAQ:
		return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			return craq.New(craq.Config{ID: id, View: view, Env: env, MLT: protocolMLT})
		}
	case ZAB:
		return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			return zab.New(zab.Config{ID: id, View: view, Env: env, MLT: protocolMLT})
		}
	case Lockstep:
		return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
			// MaxBatch 1 models Derecho's per-message lock-step commit.
			return lockstep.New(lockstep.Config{ID: id, View: view, Env: env, MLT: protocolMLT, MaxBatch: 1})
		}
	default:
		panic("bench: unknown system")
	}
}

// HermesFactory builds Hermes as the figures run it; mut, if non-nil,
// adjusts each replica's Config for an ablation.
func HermesFactory(mut func(*core.Config)) sim.Factory {
	return func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica {
		cfg := core.Config{ID: id, View: view, Env: env, MLT: protocolMLT}
		if mut != nil {
			mut(&cfg)
		}
		return core.New(cfg)
	}
}

// SizeOf estimates a protocol message's wire payload, used for Fig. 8's
// object-size sensitivity and bandwidth accounting.
func SizeOf(msg any) int {
	const hdr = 16 // epoch + key + ts + framing
	switch m := msg.(type) {
	case core.INV:
		return hdr + len(m.Value)
	case core.ACK, core.VAL, core.MCheck, core.MCheckAck:
		return hdr
	case craq.WriteReq:
		return hdr + len(m.Op.Value)
	case craq.WriteDown:
		return hdr + len(m.Value)
	case craq.AckUp, craq.VersionQuery:
		return hdr
	case craq.VersionReply:
		return hdr + len(m.Value)
	case zab.Forward:
		return hdr + len(m.Op.Value)
	case zab.Propose:
		return hdr + len(m.Entry.Value)
	case zab.AckProp, zab.Commit:
		return hdr
	case lockstep.Batch:
		n := hdr
		for _, u := range m.Ops {
			n += 16 + len(u.Value)
		}
		return n
	default:
		return hdr
	}
}

// Scale sets measurement effort. Quick keeps `go test -bench` snappy; Full
// is what cmd/hermes-bench and EXPERIMENTS.md use.
type Scale struct {
	Sessions int // closed-loop sessions per node
	Warmup   time.Duration
	Duration time.Duration
	Keys     uint64
}

// QuickScale is for unit benches and CI.
func QuickScale() Scale {
	return Scale{Sessions: 4, Warmup: 500 * time.Microsecond, Duration: 4 * time.Millisecond, Keys: 1 << 14}
}

// FullScale mirrors the paper's methodology shape (1M keys). Sessions are
// calibrated so that request latency — not raw message-processing capacity —
// is the operative constraint, matching the testbed's operating point: at
// deep CPU saturation a chain's slightly lower per-write message count
// (8.8 vs 12 receive events for n=5) outweighs its longer latency, a regime
// the paper's latency-sensitive evaluation deliberately avoids (§6.3 runs
// at rCRAQ's peak, 50-85% of Hermes'). EXPERIMENTS.md discusses this
// calibration and the one residual divergence it leaves.
func FullScale() Scale {
	return Scale{Sessions: 4, Warmup: 2 * time.Millisecond, Duration: 20 * time.Millisecond, Keys: 1 << 20}
}

// Point is one measured configuration.
type Point struct {
	System     System
	Nodes      int
	WriteRatio float64
	Zipf       bool
	ValueSize  int
	Sessions   int // overrides Scale.Sessions when non-zero
	PerByte    bool
	RMWRatio   float64
	Seed       int64
}

// Run measures one point.
func Run(p Point, sc Scale) sim.Result {
	sessions := sc.Sessions
	if p.Sessions > 0 {
		sessions = p.Sessions
	}
	valSize := p.ValueSize
	if valSize == 0 {
		valSize = 32
	}
	net := sim.DefaultNet()
	costs := sim.DefaultCosts()
	if p.PerByte {
		net.PerByte = 2 * time.Nanosecond // ~serialization of a 56Gb-class link, scaled
		costs.PerByte = time.Nanosecond   // per-byte CPU handling cost
	}
	c := sim.New(sim.Config{
		Nodes:   p.Nodes,
		Factory: Factory(p.System),
		Net:     net,
		Costs:   costs,
		Seed:    p.Seed + 1,
		SizeOf:  SizeOf,
	})
	return c.RunWorkload(sim.WorkloadParams{
		Workload: workload.Config{
			Keys:       sc.Keys,
			WriteRatio: p.WriteRatio,
			RMWRatio:   p.RMWRatio,
			ValueSize:  valSize,
			Zipf:       p.Zipf,
			ZipfTheta:  0.99,
		},
		SessionsPerNode: sessions,
		Warmup:          sc.Warmup,
		Duration:        sc.Duration,
		Seed:            p.Seed,
	})
}

// Mops formats ops/s as millions of requests per second.
func Mops(tput float64) string { return fmt.Sprintf("%.3f", tput/1e6) }

// Micros formats a duration in microseconds, one decimal.
func Micros(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e3) }
