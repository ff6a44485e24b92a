package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

func TestLocalReadWrite(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()

	if err := l.Nodes[0].Write(ctx, 7, proto.Value("hello")); err != nil {
		t.Fatal(err)
	}
	// Linearizable read at every replica; the committed write is visible
	// everywhere (a committed Hermes write reached all replicas).
	for _, n := range l.Nodes {
		v, err := n.Read(ctx, 7)
		if err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
		if string(v) != "hello" {
			t.Fatalf("node %d read %q", n.ID(), v)
		}
	}
}

func TestReadMissingKey(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	v, err := l.Nodes[1].Read(context.Background(), 999)
	if err != nil || v != nil {
		t.Fatalf("missing key: %q, %v", v, err)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i, n := range l.Nodes {
		wg.Add(1)
		go func(i int, n *ShardedNode) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				val := proto.Value(fmt.Sprintf("n%d-%d", i, j))
				if err := n.Write(ctx, 1, val); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	// All replicas converge on one value.
	ref, err := l.Nodes[0].Read(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range l.Nodes[1:] {
		v, err := n.Read(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != string(ref) {
			t.Fatalf("divergence: %q vs %q", v, ref)
		}
	}
}

func TestFAAIsAtomicUnderContention(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	const perNode = 30
	var wg sync.WaitGroup
	var committed atomic64
	for _, n := range l.Nodes {
		wg.Add(1)
		go func(n *ShardedNode) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				for { // retry aborts: standard RMW usage
					_, err := n.FAA(ctx, 5, 1)
					if err == nil {
						committed.add(1)
						break
					}
					if err != ErrAborted {
						t.Errorf("faa: %v", err)
						return
					}
				}
			}
		}(n)
	}
	wg.Wait()
	v, err := l.Nodes[0].Read(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := proto.DecodeInt64(v); got != committed.load() || got != 3*perNode {
		t.Fatalf("counter=%d committed=%d want %d", got, committed.load(), 3*perNode)
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestCASLockSemantics(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	// Two contenders attempt to acquire a lock key via CAS(nil -> owner).
	okA, _, err := l.Nodes[0].CAS(ctx, 10, nil, proto.Value("A"))
	if err != nil {
		t.Fatal(err)
	}
	if !okA {
		t.Fatal("first CAS should win")
	}
	okB, observed, err := l.Nodes[1].CAS(ctx, 10, nil, proto.Value("B"))
	if err != nil {
		t.Fatal(err)
	}
	if okB {
		t.Fatal("second CAS should lose")
	}
	if string(observed) != "A" {
		t.Fatalf("observed %q", observed)
	}
}

func TestWriteStormOnManyKeys(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 5}, 1)
	defer l.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i, n := range l.Nodes {
		wg.Add(1)
		go func(i int, n *ShardedNode) {
			defer wg.Done()
			for k := proto.Key(0); k < 40; k++ {
				if err := n.Write(ctx, proto.Key(i)*100+k, proto.Value("v")); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	for i := range l.Nodes {
		for k := proto.Key(0); k < 40; k++ {
			v, err := l.Nodes[(i+1)%len(l.Nodes)].Read(ctx, proto.Key(i)*100+k)
			if err != nil || string(v) != "v" {
				t.Fatalf("key %d: %q %v", proto.Key(i)*100+k, v, err)
			}
		}
	}
}

func TestMessageLossRecoveredLive(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 30 * time.Millisecond}, 1)
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drop 20% of protocol messages.
	drop := 0
	var mu sync.Mutex
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool {
		mu.Lock()
		defer mu.Unlock()
		drop++
		return drop%5 == 0
	})
	for i := 0; i < 30; i++ {
		if err := l.Nodes[i%3].Write(ctx, proto.Key(i%4), proto.Value{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	l.Tr.SetDrop(nil)
	// All writes committed despite loss; convergence via read.
	for k := proto.Key(0); k < 4; k++ {
		if _, err := l.Nodes[0].Read(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: time.Hour}, 1) // never recover
	defer l.Close()
	// Block all traffic: the write can never commit.
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool { return true })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := l.Nodes[0].Write(ctx, 1, proto.Value("x"))
	if err != context.DeadlineExceeded {
		t.Fatalf("err=%v want deadline exceeded", err)
	}
}

func TestViewChangeReleasesBlockedWrite(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 20 * time.Millisecond}, 1)
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Node 2 goes dark.
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool { return from == 2 || to == 2 })
	done := make(chan error, 1)
	go func() { done <- l.Nodes[0].Write(ctx, 1, proto.Value("v")) }()
	select {
	case err := <-done:
		t.Fatalf("write completed without node 2: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// m-update removes node 2.
	nv := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1}}
	l.Nodes[0].InstallView(nv)
	l.Nodes[1].InstallView(nv)
	if err := <-done; err != nil {
		t.Fatalf("write after m-update: %v", err)
	}
}

// TestLateCompletionOfCancelledOpReachesNobodyElse: the caller of a cancelled
// op is gone but its completion still arrives once the write replays and
// commits. It must not be handed to whichever op reuses the sink, and it must
// not wedge the event loop.
func TestLateCompletionOfCancelledOpReachesNobodyElse(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: 20 * time.Millisecond}, 1)
	defer l.Close()
	n := l.Nodes[0]
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool { return true })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err := n.Write(ctx, 1, proto.Value("late"))
	cancel()
	if err != context.DeadlineExceeded {
		t.Fatalf("err=%v want deadline exceeded", err)
	}
	l.Tr.SetDrop(nil) // heal: the write replays after MLT and commits

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var landed atomic.Bool
	go func() {
		// Stalls until the coordinator's pending write commits.
		v, err := n.Read(ctx, 1)
		if err != nil || string(v) != "late" {
			t.Errorf("read of the late write: %q, %v", v, err)
		}
		landed.Store(true)
	}()
	// Blocking ops on other keys, from before the late completion arrives
	// until well after: each must get its own completion.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(key proto.Key) {
			defer wg.Done()
			s := n.shardFor(key)
			for i := int64(0); i < 200 || !landed.Load(); i++ {
				c, err := s.do(ctx, proto.ClientOp{Kind: proto.OpFAA, Key: key, Value: proto.EncodeInt64(1)})
				if err != nil {
					t.Errorf("key %d op %d: %v", key, i, err)
					return
				}
				if c.Key != key || c.Kind != proto.OpFAA || proto.DecodeInt64(c.Value) != i {
					t.Errorf("key %d op %d got another op's completion: %+v", key, i, c)
					return
				}
			}
		}(proto.Key(100 + g))
	}
	wg.Wait()
}

func TestClosedNodeReturnsErrClosed(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3, MLT: time.Hour}, 1)
	n := l.Nodes[0]
	// Two ops in flight across Close (nothing gets through, so they cannot
	// commit): both must hear about it, exactly once.
	l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool { return true })
	inFlight := make(chan proto.Completion, 2)
	if err := n.SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: 1, Value: proto.Value("x")},
		func(c proto.Completion) { inFlight <- c }); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- n.Write(context.Background(), 2, proto.Value("y")) }()
	for n.Shard(0).updates.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	l.Close()
	select {
	case c := <-inFlight:
		if c.Status != proto.NotOperational {
			t.Errorf("in-flight SubmitAsync completed with %v, want NotOperational", c.Status)
		}
	case <-time.After(5 * time.Second):
		t.Error("the SubmitAsync in flight across Close never completed")
	}
	// The blocked Write sees the stop signal or the loop's parting completion,
	// whichever its select picks.
	if err := <-blocked; err != ErrClosed && err != ErrNotOperational {
		t.Fatalf("in-flight Write: err=%v, want ErrClosed or ErrNotOperational", err)
	}

	if err := n.Write(context.Background(), 1, proto.Value("x")); err != ErrClosed {
		t.Fatalf("err=%v", err)
	}
	// ops is buffered, so a select between it and the stop channel would
	// accept about half of these and never complete them.
	for i := 0; i < 200; i++ {
		err := n.SubmitAsync(proto.ClientOp{Kind: proto.OpRead, Key: 1}, func(c proto.Completion) { inFlight <- c })
		if err != ErrClosed {
			t.Fatalf("SubmitAsync %d after Close: err=%v, want ErrClosed", i, err)
		}
	}
	select {
	case c := <-inFlight:
		t.Fatalf("a callback ran a second time, or for a rejected op: %+v", c)
	default:
	}

	// Now SubmitAsync hammered while a node closes. An op the call accepted
	// completes exactly once and a rejected one never — also the op enqueued
	// in the instant between the loop's last sweep of its queue and its exit,
	// which nobody but the submitter is left to fail. Everything is settled
	// once Close and the submitters have returned: nothing runs later.
	type call struct {
		ran      atomic.Int32
		accepted bool
	}
	for round := 0; round < 30; round++ {
		l := NewShardedLocal(LocalConfig{N: 2, MLT: time.Hour}, 2)
		l.Tr.SetDrop(func(from, to proto.NodeID, msg any) bool { return true })
		n := l.Nodes[0]
		calls := make([][]*call, 4)
		var wg sync.WaitGroup
		for g := range calls {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					c := new(call)
					err := n.SubmitAsync(proto.ClientOp{Kind: proto.OpRead, Key: proto.Key(g*1000 + i%1000)},
						func(proto.Completion) { c.ran.Add(1) })
					c.accepted = err == nil
					calls[g] = append(calls[g], c)
					if err != nil {
						if err != ErrClosed {
							t.Errorf("SubmitAsync across Close: err=%v, want ErrClosed", err)
						}
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		l.Close()
		wg.Wait()
		for g := range calls {
			for i, c := range calls[g] {
				want := int32(0)
				if c.accepted {
					want = 1
				}
				if ran := c.ran.Load(); ran != want {
					t.Fatalf("round %d submitter %d op %d: accepted=%v, callback ran %d times", round, g, i, c.accepted, ran)
				}
			}
		}
	}
}

// TestBlockingOpAllocatesNothingOverAsync pins what the blocking wrappers
// cost: do is submit plus a wait on a pooled sink whose callback is bound
// once, so an op through it allocates exactly what the same op allocates
// through submit with a callback the caller already holds. The pin is the
// best of many single runs, not their mean: a channel or closure built per op
// shows in every run, while a pool miss (under -race sync.Pool drops a
// quarter of what it is given) shows in some.
func TestBlockingOpAllocatesNothingOverAsync(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 1}, 1)
	defer l.Close()
	ctx := context.Background()
	if err := l.Nodes[0].Write(ctx, 7, proto.Value("v")); err != nil {
		t.Fatal(err)
	}
	s := l.Nodes[0].shardFor(7)
	op := proto.ClientOp{Kind: proto.OpRead, Key: 7}
	best := func(f func()) float64 {
		least := testing.AllocsPerRun(1, f)
		for i := 0; i < 100; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	done := make(chan proto.Completion, 1)
	fn := func(c proto.Completion) { done <- c }
	async := best(func() {
		if err := s.submit(ctx, op, fn, false); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	blocking := best(func() {
		if _, err := s.do(ctx, op); err != nil {
			t.Fatal(err)
		}
	})
	if blocking > async {
		t.Fatalf("a blocking op allocates %.0f times, the same op submitted with a callback %.0f", blocking, async)
	}
}

func TestFastPathReadAvoidsEventLoop(t *testing.T) {
	l := NewShardedLocal(LocalConfig{N: 3}, 1)
	defer l.Close()
	ctx := context.Background()
	if err := l.Nodes[0].Write(ctx, 3, proto.Value("fp")); err != nil {
		t.Fatal(err)
	}
	// Reads of Valid keys hit the seqlock-style store directly; measure
	// that they work while the event loop is saturated.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Nodes[0].Write(ctx, 999, proto.Value("noise"))
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		v, err := l.Nodes[0].Read(ctx, 3)
		if err != nil || string(v) != "fp" {
			close(stop)
			t.Fatalf("fast read: %q %v", v, err)
		}
	}
	close(stop)
}
