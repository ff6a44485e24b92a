package sim

import (
	"math/rand"
	"time"

	"repro/internal/proto"
)

// NetConfig models an intra-datacenter fabric. Defaults approximate the
// paper's InfiniBand testbed shape: microsecond-scale base latency with
// exponential jitter. Loss, duplication and reordering (via jitter) model
// the "imperfect links" of §3.4; Network.SetLinkBlocked models link failures.
type NetConfig struct {
	// BaseLatency is the one-way propagation+switching delay.
	BaseLatency time.Duration
	// Jitter is the mean of an exponential delay added per message; it also
	// produces natural reordering.
	Jitter time.Duration
	// LossProb drops a message; DupProb delivers it twice.
	LossProb, DupProb float64
	// PerByte adds serialization delay per payload byte (object-size
	// sensitivity, Fig. 8). Zero disables.
	PerByte time.Duration
	// ReorderProb holds a message back an extra ReorderDelay so messages
	// sent after it overtake it in flight — burst reordering well beyond
	// what jitter produces. Held messages are counted in Reordered.
	ReorderProb float64
	// ReorderDelay is the extra hold applied to a reordered message.
	// Zero defaults to 8x BaseLatency (enough to be overtaken by a full
	// protocol round trip).
	ReorderDelay time.Duration
}

// DefaultNet mirrors a low-latency RDMA-class fabric.
func DefaultNet() NetConfig {
	return NetConfig{BaseLatency: 2 * time.Microsecond, Jitter: 500 * time.Nanosecond}
}

// linkKey is a directed link a->b; asymmetric cuts block one direction only.
type linkKey struct{ from, to proto.NodeID }

// Network delivers messages between hosts under NetConfig.
type Network struct {
	cfg NetConfig
	eng *Engine
	rng *rand.Rand
	// cut holds the directed link cuts installed by SetLinkBlocked. A
	// partition is a cut in both directions of every link across it; a
	// chaos schedule can also cut A->B while B->A stays clean (gray
	// asymmetric partition).
	cut map[linkKey]struct{}
	// slow holds per-node latency multipliers (slow-but-alive nodes). A
	// message is stretched by the largest factor among its two endpoints.
	slow    map[proto.NodeID]float64
	deliver func(to proto.NodeID, from proto.NodeID, msg any, bytes int)

	// Counters for bandwidth accounting. Sent counts wire frames, Batches
	// the proto.ShardBatches among them; Msgs counts protocol messages (a
	// batch's inner ones), so Msgs ≥ Sent and their ratio is the mean batch
	// size. Reordered counts messages held back by ReorderProb.
	Sent, Batches, Msgs, Dropped, Duplicated, Reordered uint64
}

// NewNetwork builds a network; deliver is invoked at arrival time.
func NewNetwork(cfg NetConfig, eng *Engine, seed int64,
	deliver func(to, from proto.NodeID, msg any, bytes int)) *Network {
	return &Network{cfg: cfg, eng: eng, rng: rand.New(rand.NewSource(seed)), deliver: deliver}
}

// SetLinkBlocked cuts (or heals) the directed link from->to. The reverse
// direction is untouched, so a one-way cut leaves from able to hear to while
// to never hears from — the asymmetric partitions that defeat naive
// heartbeat-based failure detectors.
func (n *Network) SetLinkBlocked(from, to proto.NodeID, blocked bool) {
	if blocked {
		if n.cut == nil {
			n.cut = make(map[linkKey]struct{})
		}
		n.cut[linkKey{from, to}] = struct{}{}
		return
	}
	delete(n.cut, linkKey{from, to})
}

// SetNodeSlow installs a latency multiplier on every message to or from id
// (slow-but-alive: the node answers, just late). factor <= 1 clears it.
func (n *Network) SetNodeSlow(id proto.NodeID, factor float64) {
	if factor <= 1 {
		delete(n.slow, id)
		return
	}
	if n.slow == nil {
		n.slow = make(map[proto.NodeID]float64)
	}
	n.slow[id] = factor
}

// Send queues msg for delivery from a to b; bytes scales serialization
// delay for large objects.
func (n *Network) Send(from, to proto.NodeID, msg any, bytes int) {
	n.Sent++
	if sb, ok := msg.(proto.ShardBatch); ok {
		n.Batches++
		n.Msgs += uint64(len(sb.Msgs))
	} else {
		n.Msgs++
	}
	if _, cut := n.cut[linkKey{from, to}]; cut {
		n.Dropped++
		return
	}
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.Dropped++
		return
	}
	n.scheduleDelivery(from, to, msg, bytes)
	if n.cfg.DupProb > 0 && n.rng.Float64() < n.cfg.DupProb {
		n.Duplicated++
		n.scheduleDelivery(from, to, msg, bytes)
	}
}

func (n *Network) scheduleDelivery(from, to proto.NodeID, msg any, bytes int) {
	d := n.cfg.BaseLatency
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.ExpFloat64() * float64(n.cfg.Jitter))
	}
	if n.cfg.PerByte > 0 && bytes > 0 {
		d += time.Duration(bytes) * n.cfg.PerByte
	}
	if f := n.slowFactor(from, to); f > 1 {
		d = time.Duration(float64(d) * f)
	}
	if n.cfg.ReorderProb > 0 && n.rng.Float64() < n.cfg.ReorderProb {
		n.Reordered++
		hold := n.cfg.ReorderDelay
		if hold <= 0 {
			hold = 8 * n.cfg.BaseLatency
		}
		d += hold
	}
	n.eng.After(d, func() { n.deliver(to, from, msg, bytes) })
}

func (n *Network) slowFactor(from, to proto.NodeID) float64 {
	f := n.slow[from]
	if g := n.slow[to]; g > f {
		f = g
	}
	return f
}
