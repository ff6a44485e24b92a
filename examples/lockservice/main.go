// Lockservice: the paper motivates Hermes with lock services like
// ZooKeeper and Chubby (§2.1) and with CAS-based lock acquisition (§3.6).
// This example builds a small distributed lock manager on the public API:
// a lock is a key, acquisition is CAS(free -> owner), release is
// CAS(owner -> free); contenders race from different replicas and the
// protocol guarantees at most one of the concurrent RMWs commits.
//
//	go run ./examples/lockservice
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

	"repro/internal/cluster"
	"repro/internal/proto"
)

// LockManager wraps one replica's view of the lock table.
type LockManager struct {
	node *cluster.ShardedNode
}

// Acquire takes the lock for owner; returns false (and the holder) if held.
func (lm *LockManager) Acquire(ctx context.Context, lock proto.Key, owner string) (bool, string, error) {
	for {
		ok, observed, err := lm.node.CAS(ctx, lock, nil, proto.Value(owner))
		if errors.Is(err, cluster.ErrAborted) {
			continue // lost a race; retry the RMW (paper §3.6)
		}
		if err != nil {
			return false, "", err
		}
		if ok {
			return true, owner, nil
		}
		return false, string(observed), nil
	}
}

// Release frees the lock iff owner still holds it.
func (lm *LockManager) Release(ctx context.Context, lock proto.Key, owner string) error {
	ok, observed, err := lm.node.CAS(ctx, lock, proto.Value(owner), nil)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("lock held by %q, not %q", observed, owner)
	}
	return nil
}

func main() {
	group := cluster.NewShardedLocal(cluster.LocalConfig{N: 3}, 1)
	defer group.Close()
	ctx := context.Background()
	const lock = proto.Key(100)

	// Three clients, each attached to a different replica, race for the
	// same lock and then take turns in a critical section guarded by it.
	var wg sync.WaitGroup
	acquisitions := make([]string, 0, 9)
	var mu sync.Mutex // protects the trace only; the lock protects the CS
	for i, n := range group.Nodes {
		wg.Add(1)
		go func(i int, n *cluster.ShardedNode) {
			defer wg.Done()
			lm := &LockManager{node: n}
			me := fmt.Sprintf("client-%d", i)
			for turns := 0; turns < 3; {
				got, holder, err := lm.Acquire(ctx, lock, me)
				if err != nil {
					log.Fatalf("%s acquire: %v", me, err)
				}
				if !got {
					_ = holder // busy-wait on contention
					continue
				}
				mu.Lock()
				acquisitions = append(acquisitions, me)
				mu.Unlock()
				if err := lm.Release(ctx, lock, me); err != nil {
					log.Fatalf("%s release: %v", me, err)
				}
				turns++
			}
		}(i, n)
	}
	wg.Wait()

	fmt.Printf("%d successful lock acquisitions, mutually exclusive by CAS:\n", len(acquisitions))
	for i, a := range acquisitions {
		fmt.Printf("  %2d: %s\n", i+1, a)
	}
	v, _ := group.Nodes[0].Read(ctx, lock)
	fmt.Printf("final lock state: %q (free)\n", v)
}
