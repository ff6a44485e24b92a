// Package proto defines the types shared by every replication protocol in
// this repository: node and key identifiers, per-key logical timestamps,
// membership views, client operations and completions, and the two
// interfaces — Replica and Env — that decouple protocol state machines from
// the harness (discrete-event simulator or live goroutine runtime) that
// hosts them.
//
// Protocol implementations (internal/core, internal/craq, internal/zab,
// internal/lockstep) are single-threaded, deterministic state machines: all
// inputs arrive through Replica method calls, all outputs leave through the
// Env. This is what makes the same protocol code runnable under both
// simulated virtual time and a real cluster.
package proto

import (
	"fmt"
	"time"
)

// NodeID identifies a replica within a shard's replica group. Replication
// degree in the target deployments is 3-7 (paper §2.2), so a small integer
// domain is ample; virtual node IDs (optimization O2, paper §3.3) extend the
// coordinator-ID space and use a wider type, see TS.
type NodeID uint8

// NilNode is a sentinel for "no node".
const NilNode NodeID = 0xFF

// Key identifies an object in the store. The paper's evaluation uses 8-byte
// keys (§5.2); a uint64 matches that exactly.
type Key uint64

// Value is an object payload. The evaluation uses 32-byte values by default
// and up to 1 KB for the Derecho comparison (Fig. 8).
type Value []byte

// Clone returns a copy of v. Protocol code clones values at trust
// boundaries so callers may reuse buffers.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// TS is Hermes' per-key logical timestamp: a lexicographically ordered
// [version, cid] tuple implemented as a Lamport clock (paper §3.1). Version
// is incremented on every update (by 2 for writes and 1 for RMWs, §3.6);
// cid is the coordinator's node ID — or one of its virtual IDs under the
// fairness optimization O2, hence the wider uint16.
type TS struct {
	Version uint32
	CID     uint16
}

// After reports whether t orders strictly after o: higher version wins, and
// equal versions (concurrent writes) are broken by coordinator ID
// (footnote 5 of the paper).
func (t TS) After(o TS) bool {
	return t.Version > o.Version || (t.Version == o.Version && t.CID > o.CID)
}

// AtLeast reports t >= o in timestamp order.
func (t TS) AtLeast(o TS) bool { return t == o || t.After(o) }

// Before reports whether t orders strictly before o.
func (t TS) Before(o TS) bool { return o.After(t) }

// IsZero reports whether t is the initial (never written) timestamp.
func (t TS) IsZero() bool { return t.Version == 0 && t.CID == 0 }

func (t TS) String() string { return fmt.Sprintf("%d.%d", t.Version, t.CID) }

// Compare returns -1, 0 or +1 as t orders before, equal to or after o.
func (t TS) Compare(o TS) int {
	switch {
	case t == o:
		return 0
	case t.After(o):
		return 1
	default:
		return -1
	}
}

// View is a reliable-membership epoch: the set of live, serving members plus
// any learners (shadow replicas, paper §3.4 "Recovery") that participate as
// followers for writes but serve no client requests. Members and Learners
// are sorted and disjoint. Views are immutable once published.
type View struct {
	Epoch    uint32
	Members  []NodeID
	Learners []NodeID
}

// Contains reports whether n is a serving member of the view.
func (v View) Contains(n NodeID) bool {
	for _, m := range v.Members {
		if m == n {
			return true
		}
	}
	return false
}

// IsLearner reports whether n is a learner (shadow replica) in the view.
func (v View) IsLearner(n NodeID) bool {
	for _, m := range v.Learners {
		if m == n {
			return true
		}
	}
	return false
}

// Others returns all serving members except self.
func (v View) Others(self NodeID) []NodeID {
	out := make([]NodeID, 0, len(v.Members))
	for _, m := range v.Members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// WriteSet returns every node that must acknowledge a write initiated by
// self: all other members plus all learners (shadow replicas ACK writes so
// their copies stay fresh while they catch up).
func (v View) WriteSet(self NodeID) []NodeID {
	out := make([]NodeID, 0, len(v.Members)+len(v.Learners))
	for _, m := range v.Members {
		if m != self {
			out = append(out, m)
		}
	}
	for _, l := range v.Learners {
		if l != self {
			out = append(out, l)
		}
	}
	return out
}

// Quorum returns the majority size of the serving membership.
func (v View) Quorum() int { return len(v.Members)/2 + 1 }

// Clone deep-copies the view.
func (v View) Clone() View {
	c := View{Epoch: v.Epoch}
	c.Members = append([]NodeID(nil), v.Members...)
	c.Learners = append([]NodeID(nil), v.Learners...)
	return c
}

func (v View) String() string {
	return fmt.Sprintf("view{e=%d members=%v learners=%v}", v.Epoch, v.Members, v.Learners)
}

// OpKind enumerates the client operations every protocol in this repo
// supports: linearizable reads, writes and single-key RMWs (paper §3, §3.6).
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	// OpCAS is a compare-and-swap RMW: succeeds and installs Value iff the
	// current value equals Expected. The paper motivates RMWs with
	// lock-acquisition CAS (§3.6).
	OpCAS
	// OpFAA is a fetch-and-add RMW over an 8-byte little-endian integer.
	OpFAA
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpFAA:
		return "faa"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// IsUpdate reports whether the op kind mutates state.
func (k OpKind) IsUpdate() bool { return k != OpRead }

// IsRMW reports whether the op is a read-modify-write (conflicting update).
func (k OpKind) IsRMW() bool { return k == OpCAS || k == OpFAA }

// ClientOp is a request submitted to a replica. ID is unique per submitting
// session and echoes back in the Completion.
type ClientOp struct {
	ID       uint64
	Kind     OpKind
	Key      Key
	Value    Value // write/CAS new value; FAA delta (8-byte LE)
	Expected Value // CAS comparand
}

// Status describes how an operation completed.
type Status uint8

const (
	// OK: read served, write committed, or RMW committed.
	OK Status = iota
	// Aborted: the RMW lost to a concurrent update (paper §3.6) and must be
	// retried by the client if desired. Writes never abort.
	Aborted
	// CASFailed: the CAS comparand did not match; Result.Value holds the
	// value observed (a linearizable read).
	CASFailed
	// NotOperational: the replica has no valid lease (e.g. it is on the
	// minority side of a partition) and cannot serve requests.
	NotOperational
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Aborted:
		return "aborted"
	case CASFailed:
		return "cas-failed"
	case NotOperational:
		return "not-operational"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Retryable reports whether an operation that completed with this status
// may be safely resubmitted: it provably had no effect. Aborted RMWs lost to
// a concurrent update before applying (§3.6); NotOperational replicas
// rejected the op before any protocol action. The client serving layer
// forwards these verbatim so wire clients can implement retry loops.
func (s Status) Retryable() bool { return s == Aborted || s == NotOperational }

// Completion reports the outcome of a ClientOp back to the session that
// submitted it.
type Completion struct {
	OpID   uint64
	Kind   OpKind
	Key    Key
	Status Status
	// Value: read result, failed-CAS observed value, or FAA's prior value.
	Value Value
}

// Replica is the uniform interface of every protocol node state machine.
// Implementations are single-threaded: the harness serializes all calls.
type Replica interface {
	// ID returns this replica's node ID.
	ID() NodeID
	// Submit hands a client operation to the replica. The result arrives
	// later via Env.Complete (possibly within this call).
	Submit(op ClientOp)
	// Deliver hands a network message (one of the protocol's own message
	// types) to the replica.
	Deliver(from NodeID, msg any)
	// Tick drives time-based behaviour: message-loss timeouts, replay
	// triggers, retransmissions. The harness calls it periodically.
	Tick()
	// OnViewChange installs a new reliable-membership view (m-update,
	// paper §3.4). The replica re-evaluates pending operations against the
	// new member set and retags retransmissions with the new epoch.
	OnViewChange(v View)
}

// Env is the replica's window to the outside world. Harnesses implement it;
// replicas call it from within Submit/Deliver/Tick/OnViewChange.
type Env interface {
	// Now returns the current time. Under simulation this is virtual time;
	// live it is a monotonic wall clock. Protocols must not call time.Now.
	Now() time.Duration
	// Send enqueues msg for delivery to node `to`. Delivery is asynchronous
	// and unreliable: messages may be dropped, duplicated or reordered.
	Send(to NodeID, msg any)
	// Complete reports a finished client operation.
	Complete(c Completion)
}

// ShardMsg is the shard-tagged wire envelope of the multi-worker protocol
// engine (paper §4.1: each HermesKV node runs multiple worker threads, each
// owning a partition of the keyspace). A sharded node wraps every outgoing
// protocol message so the receiver can route it to the shard replica that
// owns the key — shard s on one node only ever talks to shard s on its
// peers. This holds at every W: a single-shard node tags shard 0, and a
// receiving host drops protocol messages that arrive outside an envelope.
type ShardMsg struct {
	Shard uint16
	Msg   any
}

// ShardBatch is a coalesced frame of shard-tagged messages bound for one
// peer: the egress layer of a sharded node gathers small messages (ACKs,
// VALs) from all of its shard engines and ships them as a single wire frame
// under a single flow-control credit, instead of W independent ShardMsg
// frames with independent credit traffic. Msgs is never empty and its
// elements never nest another envelope.
type ShardBatch struct {
	Msgs []ShardMsg
}

// AllShards is the MUpdate target meaning "every shard of the node". It is
// also the one shard index a deployment may never use for a real shard;
// ShardedNode caps worker counts far below it.
const AllShards uint16 = 0xFFFF

// MUpdate is a shard-routable membership update (m-update, paper §3.4): a
// View plus the shard whose epoch it advances. Per-shard epochs localize
// reconfiguration — installing a view on one shard shuts only that shard's
// read gate, filters only that shard's in-flight epoch-tagged messages and
// replays only that shard's slice of the keyspace, while the node's other
// shards keep serving undisturbed. Shard == AllShards addresses every shard
// (the classic node-wide m-update a membership agent decides).
//
// MUpdate is node-level routing, not shard-engine traffic: it never rides a
// ShardMsg/ShardBatch envelope (its Shard field already is the routing tag)
// and protocol state machines never see it — the hosting runtime intercepts
// it and turns it into per-shard OnViewChange calls.
type MUpdate struct {
	Shard uint16 // target shard, or AllShards for every shard
	View  View
}

// ViewLogReq asks a peer for the membership updates it has retained with
// epochs above Since — the fast-forward fetch of a rejoining or lagging
// shard (§3.5–3.6: a node that missed m-updates while down must learn them
// from the view service's log, not wedge waiting for a wire delivery that
// will never be repeated). Shard scopes the request to one shard's gap;
// AllShards asks for the node-wide history. Like MUpdate this is node-level
// routing: it never rides a shard envelope and never reaches a protocol
// state machine.
type ViewLogReq struct {
	Shard uint16 // shard whose gap is being filled, or AllShards
	Since uint32 // return only updates with View.Epoch > Since
}

// ViewLogResp answers a ViewLogReq with the retained updates, in ascending
// epoch order. The receiver replays each entry through its normal MUpdate
// install path — per-shard entries advance one shard, AllShards entries fan
// out — so fast-forward is literally a replay of the missed installs. Empty
// Updates means the peer retains nothing newer: the requester is caught up
// (or the gap outgrew the peer's bounded log and a newer epoch must arrive
// by other means).
type ViewLogResp struct {
	Updates []MUpdate
}

// EpochGossip announces the sender's per-shard membership epoch vector
// (Epochs[i] is shard i's current epoch). Nodes gossip it periodically on
// the live mesh (wings tEpochGossip) and piggyback the same vector on
// membership heartbeats; a receiver that sees a peer ahead of any of its
// shards triggers its own view-log fast-forward — self-healing without an
// operator or harness backstop. Like MUpdate this is node-level routing: it
// never rides a shard envelope and never reaches a protocol state machine.
// It is strictly advisory — a hostile or stale vector can at worst provoke a
// ViewLogReq whose answer is verified by the normal install path.
type EpochGossip struct {
	Epochs []uint32
}

// ClientReq is one pipelined request of the client wire protocol — the
// front-end traffic the server layer (internal/server) multiplexes onto the
// shard engines. Seq is a session-scoped correlator chosen by the client:
// many requests may be in flight on one connection, and responses may return
// in any order (reads served on the session goroutine overtake queued
// updates), so the client matches responses to requests by Seq, never by
// position. Like the protocol's own messages it is framed by internal/wings;
// it is client↔server traffic only and never rides the replica mesh or a
// shard envelope.
type ClientReq struct {
	Seq      uint64
	Op       OpKind
	Key      Key
	Value    Value // write/CAS new value; FAA delta (8-byte LE)
	Expected Value // CAS comparand
}

// ClientResp answers one ClientReq: the echoed Seq, how the op completed,
// and its result value (read result, failed-CAS observed value, or FAA's
// prior value — exactly Completion.Value).
type ClientResp struct {
	Seq    uint64
	Status Status
	Value  Value
}

// ShardOf maps a key to one of w keyspace shards. Every node of a cluster
// must agree on w: the mapping is what makes "shard s here" and "shard s
// there" replicas of the same partition. The mixer is splitmix64's
// finalizer — deliberately different from the kvs.Store bucket hash so
// protocol shards and store buckets decorrelate.
func ShardOf(k Key, w int) uint16 {
	if w <= 1 {
		return 0
	}
	h := uint64(k) + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return uint16(h % uint64(w))
}

// Broadcast sends msg to every node in targets via env. A convenience used
// by all protocols; the wire layer may implement true multicast underneath.
func Broadcast(env Env, targets []NodeID, msg any) {
	for _, t := range targets {
		env.Send(t, msg)
	}
}

// EncodeInt64 encodes an int64 as an 8-byte little-endian value — the
// representation counter keys use (FAA operands and results).
func EncodeInt64(x int64) Value {
	return Value{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24),
		byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)}
}

// DecodeInt64 decodes an 8-byte little-endian integer value; zero-length or
// short values decode as 0 (the implicit initial value of a counter key).
func DecodeInt64(v Value) int64 {
	if len(v) < 8 {
		return 0
	}
	return int64(uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
		uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56)
}
