package sim

import (
	"testing"
	"time"

	"repro/internal/proto"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Microsecond, func() { order = append(order, 3) })
	e.At(10*time.Microsecond, func() { order = append(order, 1) })
	e.At(20*time.Microsecond, func() { order = append(order, 2) })
	if n := e.RunUntil(time.Millisecond); n != 3 {
		t.Fatalf("executed %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v", order)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("clock=%v want advanced to deadline", e.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*time.Microsecond, func() { order = append(order, i) })
	}
	e.RunUntil(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	var recur func()
	recur = func() {
		hits++
		if hits < 5 {
			e.After(10*time.Microsecond, recur)
		}
	}
	e.After(0, recur)
	e.RunUntil(time.Millisecond)
	if hits != 5 {
		t.Fatalf("hits=%d", hits)
	}
	if e.Pending() != 0 {
		t.Fatal("events left over")
	}
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(2*time.Millisecond, func() { ran = true })
	e.RunUntil(time.Millisecond)
	if ran {
		t.Fatal("future event executed early")
	}
	if e.Pending() != 1 {
		t.Fatal("event lost")
	}
	e.RunUntil(3 * time.Millisecond)
	if !ran {
		t.Fatal("event never ran")
	}
}

func TestEnginePastEventsClampToNow(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Millisecond)
	ran := false
	e.At(0, func() { ran = true }) // in the past: runs "now"
	e.RunUntil(2 * time.Millisecond)
	if !ran {
		t.Fatal("clamped event dropped")
	}
}

func TestNetworkDeliversWithLatency(t *testing.T) {
	e := NewEngine()
	var deliveredAt time.Duration
	n := NewNetwork(NetConfig{BaseLatency: 5 * time.Microsecond}, e, 1,
		func(to, from proto.NodeID, msg any, bytes int) { deliveredAt = e.Now() })
	n.Send(0, 1, "m", 10)
	e.RunUntil(time.Millisecond)
	if deliveredAt != 5*time.Microsecond {
		t.Fatalf("delivered at %v", deliveredAt)
	}
	if n.Sent != 1 {
		t.Fatalf("sent=%d", n.Sent)
	}
}

func TestNetworkLossAndDuplication(t *testing.T) {
	e := NewEngine()
	got := 0
	n := NewNetwork(NetConfig{BaseLatency: time.Microsecond, LossProb: 0.5}, e, 7,
		func(to, from proto.NodeID, msg any, bytes int) { got++ })
	for i := 0; i < 1000; i++ {
		n.Send(0, 1, i, 0)
	}
	e.RunUntil(time.Second)
	if got < 350 || got > 650 {
		t.Fatalf("with 50%% loss, delivered %d/1000", got)
	}
	if n.Dropped == 0 {
		t.Fatal("no drops counted")
	}

	e2 := NewEngine()
	got2 := 0
	n2 := NewNetwork(NetConfig{BaseLatency: time.Microsecond, DupProb: 1}, e2, 7,
		func(to, from proto.NodeID, msg any, bytes int) { got2++ })
	n2.Send(0, 1, "x", 0)
	e2.RunUntil(time.Second)
	if got2 != 2 {
		t.Fatalf("dup delivered %d copies", got2)
	}
}

func TestNetworkPartition(t *testing.T) {
	e := NewEngine()
	got := 0
	n := NewNetwork(NetConfig{BaseLatency: time.Microsecond}, e, 1,
		func(to, from proto.NodeID, msg any, bytes int) { got++ })
	// {0} | {1, 2}: both directions of every link across the cut.
	partition := func(blocked bool) {
		for _, b := range []proto.NodeID{1, 2} {
			n.SetLinkBlocked(0, b, blocked)
			n.SetLinkBlocked(b, 0, blocked)
		}
	}
	partition(true)
	n.Send(0, 1, "blocked", 0)
	n.Send(1, 2, "ok", 0)
	e.RunUntil(time.Millisecond)
	if got != 1 {
		t.Fatalf("delivered %d, want only the intra-partition message", got)
	}
	partition(false)
	n.Send(0, 1, "healed", 0)
	e.RunUntil(2 * time.Millisecond)
	if got != 2 {
		t.Fatal("healed partition still blocks")
	}
}

func TestNetworkPerByteDelay(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	n := NewNetwork(NetConfig{BaseLatency: time.Microsecond, PerByte: time.Nanosecond}, e, 1,
		func(to, from proto.NodeID, msg any, bytes int) { at = e.Now() })
	n.Send(0, 1, "m", 1000)
	e.RunUntil(time.Millisecond)
	if at != 2*time.Microsecond {
		t.Fatalf("1KB at 1ns/B should add 1µs: delivered at %v", at)
	}
}

func TestNetworkJitterReorders(t *testing.T) {
	e := NewEngine()
	var got []int
	n := NewNetwork(NetConfig{BaseLatency: time.Microsecond, Jitter: 10 * time.Microsecond}, e, 42,
		func(to, from proto.NodeID, msg any, bytes int) { got = append(got, msg.(int)) })
	for i := 0; i < 50; i++ {
		n.Send(0, 1, i, 0)
	}
	e.RunUntil(time.Second)
	if len(got) != 50 {
		t.Fatalf("delivered %d", len(got))
	}
	reordered := false
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			reordered = true
		}
	}
	if !reordered {
		t.Fatal("jitter produced no reordering in 50 sends")
	}
}
