// Package linear checks recorded operation histories for linearizability
// (Herlihy & Wing '90) against a single-register specification. Because
// linearizability is compositional (paper §2.2), checking each key's
// history independently suffices for whole-store linearizability — which is
// how the integration tests validate Hermes and rCRAQ under message loss,
// duplication, reordering and crashes.
//
// The checker is the classic Wing–Gong tree search with Lowe-style
// memoization: at each step, any operation whose invocation precedes the
// earliest un-linearized response may be linearized next; (state,
// remaining-set) pairs already proven unsatisfiable are pruned. Operations
// that never returned (their client crashed or the run ended) may linearize
// anywhere after invocation or not at all.
package linear

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/proto"
)

// Kind is the specification-level operation type.
type Kind uint8

const (
	// KRead returns the register's value in Out.
	KRead Kind = iota
	// KWrite sets the register to Arg.
	KWrite
	// KFAA adds Arg (8-byte LE delta) and returns the prior value in Out.
	KFAA
	// KCASOk is a CAS that succeeded: register must equal Exp, becomes Arg.
	KCASOk
	// KCASFail is a CAS that failed: register must equal Out (≠ Exp) and is
	// unchanged.
	KCASFail
)

func (k Kind) String() string {
	switch k {
	case KRead:
		return "read"
	case KWrite:
		return "write"
	case KFAA:
		return "faa"
	case KCASOk:
		return "cas-ok"
	case KCASFail:
		return "cas-fail"
	default:
		return "kind(?)"
	}
}

// Pending marks an operation that never returned.
const Pending = time.Duration(-1)

// Op is one operation in a key's history.
type Op struct {
	ID     uint64
	Kind   Kind
	Arg    proto.Value // write value / FAA delta / CAS new value
	Exp    proto.Value // CAS comparand
	Out    proto.Value // read result / FAA prior / failed-CAS observed
	Invoke time.Duration
	Return time.Duration // Pending if the op never returned
}

func (o Op) pending() bool { return o.Return == Pending }

// Result reports a check outcome; when not linearizable, Reason explains
// the first violation found at the search's end state.
type Result struct {
	OK   bool
	Ops  int
	Info string
}

// CheckRegister decides whether the history is linearizable with respect to
// a register holding an initially-empty value. It is exponential in the
// worst case but fast for the bounded-concurrency histories the tests
// produce; MaxOps guards against pathological inputs.
func CheckRegister(ops []Op) Result {
	const maxOps = 2000
	if len(ops) > maxOps {
		return Result{OK: false, Ops: len(ops), Info: "history too large to check"}
	}
	h := append([]Op(nil), ops...)
	sort.SliceStable(h, func(i, j int) bool { return h[i].Invoke < h[j].Invoke })

	n := len(h)
	if n == 0 {
		return Result{OK: true}
	}
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	memo := make(map[string]bool) // visited (state, remaining) combos
	ok := search(h, remaining, n, nil, memo)
	if ok {
		return Result{OK: true, Ops: n}
	}
	return Result{OK: false, Ops: n, Info: describeFailure(h)}
}

// search tries to linearize all non-pending remaining ops.
func search(h []Op, remaining []bool, left int, state proto.Value, memo map[string]bool) bool {
	if allPendingDone(h, remaining) {
		return true
	}
	key := memoKey(remaining, state)
	if memo[key] {
		return false
	}
	memo[key] = true

	// The frontier: ops that may linearize next are those invoked before
	// the earliest response among remaining non-pending ops.
	minReturn := time.Duration(1<<63 - 1)
	for i, rem := range remaining {
		if rem && !h[i].pending() && h[i].Return < minReturn {
			minReturn = h[i].Return
		}
	}
	for i, rem := range remaining {
		if !rem || h[i].Invoke > minReturn {
			continue
		}
		ok, next := step(state, h[i])
		if !ok {
			continue
		}
		remaining[i] = false
		if search(h, remaining, left-1, next, memo) {
			remaining[i] = true // restore for caller's benefit
			return true
		}
		remaining[i] = true
	}
	// Pending ops may also be skipped entirely; that case is handled by
	// allPendingDone above once every returned op is linearized.
	return false
}

// allPendingDone reports whether every remaining op is pending (and may
// thus be dropped: a crashed client's op need not have taken effect).
func allPendingDone(h []Op, remaining []bool) bool {
	for i, rem := range remaining {
		if rem && !h[i].pending() {
			return false
		}
	}
	return true
}

// step applies op to the register state, checking outputs.
func step(state proto.Value, op Op) (bool, proto.Value) {
	switch op.Kind {
	case KRead:
		if op.pending() {
			return true, state // a pending read has no visible output
		}
		return equal(state, op.Out), state
	case KWrite:
		return true, op.Arg
	case KFAA:
		// FAA reads the state through DecodeInt64, exactly as the protocol
		// does (missing/short values decode as 0), so the prior-value check
		// must compare decoded integers, not bytes: an FAA executing against
		// the implicit initial state reports EncodeInt64(0), which is
		// byte-unequal to the empty register — demanding byte equality made
		// such (perfectly linearizable) histories uncheckable and flaked the
		// live fast-path suite whenever an FAA linearized before the first
		// write of a key.
		if !op.pending() && proto.DecodeInt64(state) != proto.DecodeInt64(op.Out) {
			return false, nil
		}
		return true, proto.EncodeInt64(proto.DecodeInt64(state) + proto.DecodeInt64(op.Arg))
	case KCASOk:
		if !equal(state, op.Exp) {
			return false, nil
		}
		return true, op.Arg
	case KCASFail:
		if equal(state, op.Exp) {
			return false, nil // it should have succeeded
		}
		if !op.pending() && !equal(state, op.Out) {
			return false, nil
		}
		return true, state
	default:
		return false, nil
	}
}

func equal(a, b proto.Value) bool { return string(a) == string(b) }

func memoKey(remaining []bool, state proto.Value) string {
	buf := make([]byte, 0, len(remaining)/8+len(state)+1)
	var cur byte
	for i, r := range remaining {
		if r {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	buf = append(buf, cur, 0xFF)
	buf = append(buf, state...)
	return string(buf)
}

func describeFailure(h []Op) string {
	s := fmt.Sprintf("no linearization for %d ops; first ops:", len(h))
	for i, op := range h {
		if i >= 6 {
			s += " ..."
			break
		}
		s += fmt.Sprintf(" [%s arg=%q out=%q %v-%v]", op.Kind, op.Arg, op.Out, op.Invoke, op.Return)
	}
	return s
}

// History accumulates per-key operation records during a run. It is not
// safe for concurrent use; the simulator is single-threaded and the live
// runtime's tests wrap it in a mutex.
type History struct {
	byKey   map[proto.Key][]Op
	invokes map[uint64]pendingInv
}

type pendingInv struct {
	key proto.Key
	op  Op
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{byKey: make(map[proto.Key][]Op), invokes: make(map[uint64]pendingInv)}
}

// Invoke records an operation's start. ID must be unique across the run.
func (h *History) Invoke(id uint64, key proto.Key, kind Kind, arg, exp proto.Value, at time.Duration) {
	h.invokes[id] = pendingInv{key: key, op: Op{ID: id, Kind: kind, Arg: arg, Exp: exp, Invoke: at, Return: Pending}}
}

// Return records an operation's completion; out is its observed output.
// kindOverride lets a CAS resolve to KCASOk/KCASFail at completion time
// (pass the invoked kind otherwise).
func (h *History) Return(id uint64, kindOverride Kind, out proto.Value, at time.Duration) {
	inv, ok := h.invokes[id]
	if !ok {
		return
	}
	delete(h.invokes, id)
	inv.op.Kind = kindOverride
	inv.op.Out = out
	inv.op.Return = at
	h.byKey[inv.key] = append(h.byKey[inv.key], inv.op)
}

// Discard removes an invocation that is known to have had no effect (e.g.
// an RMW that reported Aborted: Hermes guarantees aborted RMWs never
// applied).
func (h *History) Discard(id uint64) {
	delete(h.invokes, id)
}

// Close moves still-pending invocations into their key histories as
// Pending ops (they may or may not have taken effect), in ascending ID order
// so the recorded history — and anything digesting it, like a chaos
// fingerprint — does not depend on map iteration order.
func (h *History) Close() {
	ids := make([]uint64, 0, len(h.invokes))
	for id := range h.invokes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		inv := h.invokes[id]
		h.byKey[inv.key] = append(h.byKey[inv.key], inv.op)
		delete(h.invokes, id)
	}
}

// Keys returns the recorded keys.
func (h *History) Keys() []proto.Key {
	ks := make([]proto.Key, 0, len(h.byKey))
	for k := range h.byKey {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Ops returns a key's recorded operations.
func (h *History) Ops(k proto.Key) []Op { return h.byKey[k] }

// CheckAll verifies every key's history; it returns the first failing key
// and its result, or ok.
func (h *History) CheckAll() (proto.Key, Result, bool) {
	for _, k := range h.Keys() {
		if res := CheckRegister(h.byKey[k]); !res.OK {
			return k, res, false
		}
	}
	return 0, Result{OK: true}, true
}
