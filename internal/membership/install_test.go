package membership

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// The redelivery counter and the without-aliasing fixes, unit-tested
// against a directly driven Agent.

// without must return a fresh slice: the previous in-place filter wrote
// through the input's backing array, silently corrupting whatever view (or
// cfg.All) the caller's slice aliased.
func TestWithoutDoesNotAliasInput(t *testing.T) {
	in := []proto.NodeID{0, 1, 2, 3, 4}
	orig := append([]proto.NodeID(nil), in...)
	out := without(in, []proto.NodeID{1, 3})
	want := []proto.NodeID{0, 2, 4}
	if len(out) != len(want) {
		t.Fatalf("without = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("without = %v, want %v", out, want)
		}
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatalf("without overwrote its input: %v, want %v untouched", in, orig)
		}
	}
	if len(out) > 0 && &out[0] == &in[0] {
		t.Fatal("without returned a slice aliasing the input's backing array")
	}
}

// The agent-level version of the same bug: a removal proposal filtering a
// dead node must leave the committed view's member list bit-identical while
// the proposal is in flight — even when the filtered slice aliases live
// state.
func TestProposalFilteringLeavesViewIntact(t *testing.T) {
	h := newMHarness(t, 3)
	a := h.agents[0]
	before := append([]proto.NodeID(nil), a.view.Members...)
	// Make node 2 look long dead while node 1 stays fresh, then tick: node 0
	// (rank 0 among survivors) starts the removal proposal immediately.
	h.now = 10 * time.Second
	a.lastHeard[1] = h.now
	a.lastHeard[2] = 0
	a.Tick()
	if !a.Proposing() {
		t.Fatal("no removal proposal started")
	}
	if got := a.prop.view.Members; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("proposal members %v, want [0 1]", got)
	}
	for i := range before {
		if a.view.Members[i] != before[i] {
			t.Fatalf("building the proposal corrupted the committed view: %v, want %v",
				a.view.Members, before)
		}
	}
}

// Duplicate deliveries of the current view must stay idempotent — OnView
// fires once per epoch — but observable through the redelivery counter.
func TestInstallRedeliveryIdempotentButCounted(t *testing.T) {
	h := newMHarness(t, 3)
	a := h.agents[0]
	v2 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	a.Deliver(1, ViewCommit{View: v2})
	if got := len(h.views[0]); got != 1 {
		t.Fatalf("OnView fired %d times after first install, want 1", got)
	}
	if a.Redelivered() != 0 {
		t.Fatalf("redelivered = %d before any duplicate", a.Redelivered())
	}
	// The same commit again (a lossy wire redelivers), plus a stale one.
	a.Deliver(2, ViewCommit{View: v2})
	a.Deliver(2, ViewCommit{View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}}})
	if got := len(h.views[0]); got != 1 {
		t.Fatalf("OnView re-fired on redelivery: %d calls, want 1", got)
	}
	if got := a.Redelivered(); got != 2 {
		t.Fatalf("redelivered = %d, want 2", got)
	}
	if a.View().Epoch != 2 {
		t.Fatalf("view regressed to epoch %d", a.View().Epoch)
	}
}
