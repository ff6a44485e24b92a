package sim

import (
	"fmt"
	"time"

	"repro/internal/membership"
	"repro/internal/proto"
)

// Costs is the host CPU model: a host is a FIFO single server (the
// aggregate of the paper's worker threads on one machine); every handled
// client op and protocol message occupies it for the configured service
// time, so overload surfaces as queueing delay — which is exactly how the
// ZAB leader and the CRAQ tail become bottlenecks in the paper's evaluation.
type Costs struct {
	// ClientOp is the local service time of one client request (decode +
	// KVS access; §4.1).
	ClientOp time.Duration
	// Message is the service time of one incoming protocol message.
	Message time.Duration
	// PerByte adds CPU time per payload byte handled (large-object cost,
	// Fig. 8).
	PerByte time.Duration
}

// DefaultCosts gives a node roughly 2 Mops/s of local read capacity — a
// scaled-down stand-in for the testbed's ~197 Mops/s 20-thread nodes. All
// figures reproduce shapes, not absolute rates (see internal/README.md,
// "Simulator scale and ablations").
func DefaultCosts() Costs {
	return Costs{ClientOp: 500 * time.Nanosecond, Message: 300 * time.Nanosecond}
}

// RMParams configures the reliable-membership agents. Nil RMParams in
// Config runs with a static membership (no heartbeat traffic), which is how
// the throughput/latency figures are measured; the failure experiment
// (Fig. 9) enables it.
type RMParams struct {
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	LeaseDur       time.Duration
}

// Factory builds one replica of the protocol under test.
type Factory func(id proto.NodeID, view proto.View, env proto.Env) proto.Replica

// Config assembles a simulated cluster.
type Config struct {
	Nodes     int
	Factory   Factory
	Net       NetConfig
	Costs     Costs
	TickEvery time.Duration // protocol timer granularity (default 100µs)
	Seed      int64
	RM        *RMParams
	// SizeOf estimates a message's wire payload size for PerByte costs and
	// bandwidth accounting; nil uses a flat 64 B.
	SizeOf func(msg any) int
	// Workers models per-node CPU parallelism: each host runs that many
	// independent FIFO servers instead of one, standing in for the paper's
	// multiple worker threads per node (§4.1), each owning a keyspace
	// shard. 0 or 1 keeps the classic single-server host.
	Workers int
	// WorkerOf routes work (protocol messages and proto.ClientOp values) to
	// a host worker; the result is taken modulo Workers. Nil sends
	// everything to worker 0 — with Workers > 1 that models a node whose
	// extra cores sit idle, so callers wanting parallelism must route by
	// key (see bench.ShardWorkerOf).
	WorkerOf func(msg any) int
}

// Cluster is a simulated deployment: engine + network + hosts + sessions.
type Cluster struct {
	cfg   Config
	eng   *Engine
	net   *Network
	hosts []*host
	view  proto.View

	sessions map[proto.NodeID]map[uint64]func(proto.Completion)

	// ViewChanges counts installed m-updates across hosts.
	ViewChanges uint64
}

type host struct {
	c     *Cluster
	id    proto.NodeID
	rep   proto.Replica
	agent *membership.Agent
	// busyUntil holds each worker's queue horizon; workers are independent
	// FIFO servers over the shared virtual clock.
	busyUntil []time.Duration
	crashed   bool
	// Busy accumulates CPU time consumed across all workers, for
	// utilization accounting.
	Busy time.Duration
	// Clock skew: the time this host's protocol code observes is
	// skewAccum + (engineNow - skewBase) * skewRate. Rate 1 is nominal;
	// SetClockRate re-bases so perceived time stays continuous and (for
	// positive rates) monotonic. Skew survives Restart — it models the
	// hardware clock, not process state.
	skewRate            float64
	skewBase, skewAccum time.Duration
}

// hostEnv adapts a host to proto.Env. Handlers execute at their CPU
// completion time, so sends and Now() observed by the protocol naturally
// reflect processing delay.
type hostEnv struct{ h *host }

func (e hostEnv) Now() time.Duration { return e.h.now() }

// now is the host's skewed clock: everything the replica and membership
// agent derive from Env.Now (MLT retransmit deadlines, lease windows,
// heartbeat cadence) runs on this clock, while the network and engine keep
// true time — so a fast clock retransmits early enough to race originals and
// a slow clock strains the §8 loosely-synchronized-clock lease assumption.
func (h *host) now() time.Duration {
	now := h.c.eng.Now()
	if h.skewRate == 1 {
		return h.skewAccum + (now - h.skewBase)
	}
	return h.skewAccum + time.Duration(float64(now-h.skewBase)*h.skewRate)
}

// SetClockRate sets node id's clock rate (1.0 = nominal). The perceived
// clock is re-based at the current instant, so it never jumps backward when
// the rate changes.
func (c *Cluster) SetClockRate(id proto.NodeID, rate float64) {
	h := c.hosts[id]
	h.skewAccum = h.now()
	h.skewBase = c.eng.Now()
	h.skewRate = rate
}

func (e hostEnv) Send(to proto.NodeID, msg any) {
	e.h.c.net.Send(e.h.id, to, msg, e.h.c.sizeOf(msg))
}

func (e hostEnv) Complete(comp proto.Completion) {
	e.h.c.complete(e.h.id, comp)
}

// New builds the cluster. Node IDs are 0..Nodes-1, all members of epoch 1.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("sim: Config.Nodes must be positive")
	}
	if cfg.Factory == nil {
		panic("sim: Config.Factory is required")
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 100 * time.Microsecond
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	c := &Cluster{
		cfg:      cfg,
		eng:      NewEngine(),
		sessions: make(map[proto.NodeID]map[uint64]func(proto.Completion)),
	}
	c.net = NewNetwork(cfg.Net, c.eng, cfg.Seed^0x5eed, c.deliver)

	members := make([]proto.NodeID, cfg.Nodes)
	for i := range members {
		members[i] = proto.NodeID(i)
	}
	c.view = proto.View{Epoch: 1, Members: members}

	for _, id := range members {
		h := &host{c: c, id: id,
			busyUntil: make([]time.Duration, cfg.Workers),
			skewRate:  1,
		}
		env := hostEnv{h: h}
		h.rep = cfg.Factory(id, c.view, env)
		if cfg.RM != nil {
			h.agent = c.newAgent(h, id, c.view)
		}
		c.hosts = append(c.hosts, h)
		c.sessions[id] = make(map[uint64]func(proto.Completion))
	}
	// Timer loop per host.
	for _, h := range c.hosts {
		h := h
		var tick func()
		tick = func() {
			if !h.crashed {
				h.rep.Tick()
				if h.agent != nil {
					h.agent.Tick()
				}
			}
			c.eng.After(cfg.TickEvery, tick)
		}
		c.eng.After(cfg.TickEvery, tick)
	}
	return c
}

// newAgent builds host h's reliable-membership agent, wired to the
// cluster's view/lease plumbing. The acceptor group is always the full
// configured node set; initial seeds the agent's committed view (a restarted
// node passes the possibly stale view it remembered).
func (c *Cluster) newAgent(h *host, id proto.NodeID, initial proto.View) *membership.Agent {
	return membership.New(membership.Config{
		ID: id, All: c.viewMembersAll(), Initial: initial, Env: hostEnv{h: h},
		HeartbeatEvery: c.cfg.RM.HeartbeatEvery,
		SuspectAfter:   c.cfg.RM.SuspectAfter,
		LeaseDur:       c.cfg.RM.LeaseDur,
		OnView: func(v proto.View) {
			c.ViewChanges++
			h.rep.OnViewChange(v)
		},
		OnLease: func(ok bool) {
			if la, is := h.rep.(interface{ SetOperational(bool) }); is {
				la.SetOperational(ok)
			}
		},
	})
}

// viewMembersAll returns the full configured node set 0..Nodes-1.
func (c *Cluster) viewMembersAll() []proto.NodeID {
	all := make([]proto.NodeID, c.cfg.Nodes)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	return all
}

// Agent returns node id's membership agent (nil when RM is disabled).
func (c *Cluster) Agent(id proto.NodeID) *membership.Agent { return c.hosts[id].agent }

// Engine exposes the virtual clock (tests and the bench harness use it).
func (c *Cluster) Engine() *Engine { return c.eng }

// Network exposes the network for partitions and counters.
func (c *Cluster) Network() *Network { return c.net }

// Replica returns node id's protocol instance.
func (c *Cluster) Replica(id proto.NodeID) proto.Replica { return c.hosts[id].rep }

// View returns the initial static view.
func (c *Cluster) View() proto.View { return c.view }

func (c *Cluster) sizeOf(msg any) int {
	if c.cfg.SizeOf != nil {
		return c.cfg.SizeOf(msg)
	}
	return 64
}

// workerOf picks the worker that will process msg: the configured router
// modulo the worker count, worker 0 otherwise.
func (c *Cluster) workerOf(msg any) int {
	if c.cfg.Workers <= 1 || c.cfg.WorkerOf == nil {
		return 0
	}
	w := c.cfg.WorkerOf(msg) % c.cfg.Workers
	if w < 0 {
		w += c.cfg.Workers
	}
	return w
}

// exec models one host worker's CPU: fn runs after worker w has had cost
// free CPU time, FIFO behind that worker's earlier work. Different workers
// of one host proceed in parallel virtual time — the multi-worker node
// model of §4.1.
func (h *host) exec(w int, cost time.Duration, fn func()) {
	start := h.c.eng.Now()
	if h.busyUntil[w] > start {
		start = h.busyUntil[w]
	}
	h.busyUntil[w] = start + cost
	h.Busy += cost
	h.c.eng.At(h.busyUntil[w], func() {
		if !h.crashed {
			fn()
		}
	})
}

// deliver is the network's arrival callback. A ShardBatch costs one
// Message per inner message, and the replica's host fans it out to the
// owner engines.
func (c *Cluster) deliver(to, from proto.NodeID, msg any, bytes int) {
	h := c.hosts[to]
	if h.crashed {
		return
	}
	msgs := 1
	if sb, ok := msg.(proto.ShardBatch); ok {
		msgs = len(sb.Msgs)
	}
	cost := time.Duration(msgs)*c.cfg.Costs.Message + time.Duration(bytes)*c.cfg.Costs.PerByte
	h.exec(c.workerOf(msg), cost, func() {
		if membership.IsMsg(msg) {
			if h.agent != nil {
				h.agent.Deliver(from, msg)
			}
			return
		}
		h.rep.Deliver(from, msg)
	})
}

// Submit injects a client operation at node id; cb fires at completion.
func (c *Cluster) Submit(id proto.NodeID, op proto.ClientOp, cb func(proto.Completion)) {
	h := c.hosts[id]
	if h.crashed {
		return // client loses its server; the session ends
	}
	c.sessions[id][op.ID] = cb
	cost := c.cfg.Costs.ClientOp + time.Duration(len(op.Value))*c.cfg.Costs.PerByte
	h.exec(c.workerOf(op), cost, func() { h.rep.Submit(op) })
}

func (c *Cluster) complete(id proto.NodeID, comp proto.Completion) {
	m := c.sessions[id]
	cb := m[comp.OpID]
	if cb == nil {
		return
	}
	delete(m, comp.OpID)
	cb(comp)
}

// CrashAt schedules a crash-stop failure of node id at virtual time t.
func (c *Cluster) CrashAt(id proto.NodeID, t time.Duration) {
	c.eng.At(t, func() { c.hosts[id].crashed = true })
}

// Crashed reports whether the node has crashed.
func (c *Cluster) Crashed(id proto.NodeID) bool { return c.hosts[id].crashed }

// Restart revives a crashed host with a fresh replica built by f — a process
// restart that lost all volatile state, the precondition of the §3.4
// rejoin-as-learner path. The host's timer loop resumes on the next tick;
// in-flight messages addressed to the dead incarnation deliver to the new
// one (the network cannot tell them apart), which is exactly why rejoining
// replicas start at the current epoch and filter stale traffic. No-op if the
// host is not crashed.
func (c *Cluster) Restart(id proto.NodeID, f Factory, view proto.View) {
	h := c.hosts[id]
	if !h.crashed {
		return
	}
	h.crashed = false
	for i := range h.busyUntil {
		h.busyUntil[i] = 0
	}
	h.rep = f(id, view, hostEnv{h: h})
	if c.cfg.RM != nil {
		// The agent's volatile state died with the process too; the rebuilt
		// one seeds from whatever view the restarting node remembered (view
		// may be stale — heartbeat epochs catch it up).
		h.agent = c.newAgent(h, id, view)
	}
}

// InstallView force-installs a view at every live host (used when RM is
// disabled but a test still wants an m-update).
func (c *Cluster) InstallView(v proto.View) {
	for _, h := range c.hosts {
		if !h.crashed {
			h.rep.OnViewChange(v)
		}
	}
	c.view = v
}

// Utilization returns each host's CPU busy fraction over elapsed time,
// normalized by the worker count (1.0 = all workers saturated).
func (c *Cluster) Utilization() []float64 {
	el := c.eng.Now()
	if el == 0 {
		return make([]float64, len(c.hosts))
	}
	out := make([]float64, len(c.hosts))
	for i, h := range c.hosts {
		out[i] = float64(h.Busy) / float64(el) / float64(c.cfg.Workers)
	}
	return out
}

func (c *Cluster) String() string {
	return fmt.Sprintf("sim.Cluster{nodes=%d, now=%v}", len(c.hosts), c.eng.Now())
}
