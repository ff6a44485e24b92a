package sim

import (
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// WorkloadParams drives a measured run: closed-loop sessions per node
// issuing a read/write mix, with a warmup excluded from statistics —
// mirroring the paper's methodology (§5.2, §6).
type WorkloadParams struct {
	Workload        workload.Config
	SessionsPerNode int
	Warmup          time.Duration
	Duration        time.Duration // measured window (after warmup)
	// SeriesBucket, when non-zero, records a throughput-over-time series
	// across the whole run including warmup (Fig. 9).
	SeriesBucket time.Duration
	// RetryAborts reissues aborted RMWs (clients typically retry a failed
	// lock acquisition).
	RetryAborts bool
	// Observer, when non-nil, sees every completion inside the measured
	// window — the hook per-shard throughput accounting uses (the
	// completion's Key identifies the owning shard).
	Observer func(comp proto.Completion)
	// Seed varies session RNGs between runs.
	Seed int64
}

// Result aggregates a run's measurements.
type Result struct {
	// Ops counts completions inside the measured window; Throughput is
	// ops/s of virtual time.
	Ops        uint64
	Throughput float64
	// Read and Write hold end-to-end latencies (RMWs count as writes).
	Read, Write *stats.Histogram
	// All merges both.
	All *stats.Histogram
	// Aborts counts aborted RMWs; NotOperational counts rejections by
	// lease-less replicas (both over the whole run).
	Aborts, NotOperational uint64
	// Series is the completion-rate series when requested.
	Series *stats.Series
	// MsgsSent is total protocol messages over the whole run.
	MsgsSent uint64
}

type session struct {
	c       *Cluster
	node    proto.NodeID
	gen     *workload.Generator
	p       *WorkloadParams
	r       *runState
	idBase  uint64 // disambiguates op IDs between sessions on one node
	pending proto.ClientOp
	issued  time.Duration
}

type runState struct {
	res        Result
	start, end time.Duration // measured window bounds
}

// RunWorkload executes the workload and returns measurements. The cluster
// can be reused for further runs; the clock keeps advancing.
func (c *Cluster) RunWorkload(p WorkloadParams) Result {
	if p.SessionsPerNode <= 0 {
		p.SessionsPerNode = 4
	}
	if p.Duration <= 0 {
		p.Duration = 10 * time.Millisecond
	}
	rs := &runState{
		start: c.eng.Now() + p.Warmup,
		end:   c.eng.Now() + p.Warmup + p.Duration,
	}
	rs.res.Read = stats.NewHistogram()
	rs.res.Write = stats.NewHistogram()
	rs.res.All = stats.NewHistogram()
	if p.SeriesBucket > 0 {
		rs.res.Series = stats.NewSeries(p.SeriesBucket)
	}
	msgsBefore := c.net.Msgs

	for _, h := range c.hosts {
		for s := 0; s < p.SessionsPerNode; s++ {
			sess := &session{
				c:      c,
				node:   h.id,
				gen:    workload.NewGenerator(p.Workload, p.Seed+int64(h.id)*1000+int64(s)),
				p:      &p,
				r:      rs,
				idBase: uint64(s+1) << 40, // session-unique ID space per node
			}
			sess.issueNext()
		}
	}

	c.eng.RunUntil(rs.end)
	elapsed := p.Duration.Seconds()
	rs.res.Throughput = float64(rs.res.Ops) / elapsed
	rs.res.MsgsSent = c.net.Msgs - msgsBefore
	return rs.res
}

func (s *session) issueNext() {
	s.pending = s.gen.Next()
	s.pending.ID += s.idBase
	s.issue(s.pending)
}

func (s *session) issue(op proto.ClientOp) {
	s.issued = s.c.eng.Now()
	s.c.Submit(s.node, op, s.onDone)
}

func (s *session) onDone(comp proto.Completion) {
	now := s.c.eng.Now()
	switch comp.Status {
	case proto.Aborted:
		s.r.res.Aborts++
		if s.p.RetryAborts {
			// Retry with a fresh op ID so the completion routes back here.
			op := s.pending
			op.ID += 1 << 48 // disjoint from generator IDs
			s.pending = op
			s.issue(op)
			return
		}
	case proto.NotOperational:
		s.r.res.NotOperational++
		// Back off and retry: the replica may regain its lease.
		s.c.eng.After(time.Millisecond, func() { s.issue(s.pending) })
		return
	case proto.OK, proto.CASFailed:
		// Completed operations fall through to latency recording below.
	}
	lat := now - s.issued
	if now >= s.r.start && now < s.r.end {
		if s.p.Observer != nil {
			s.p.Observer(comp)
		}
		s.r.res.Ops++
		s.r.res.All.Record(lat)
		if comp.Kind == proto.OpRead {
			s.r.res.Read.Record(lat)
		} else {
			s.r.res.Write.Record(lat)
		}
	}
	if s.r.res.Series != nil {
		s.r.res.Series.Add(now)
	}
	if now < s.r.end {
		s.issueNext()
	}
}
