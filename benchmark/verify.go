package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/linear"
	"repro/internal/proto"
)

// corruptReplica, when set, is called after the timed phases and before the
// replica comparison; a test uses it to damage one replica's copy of a key
// and see the check fail.
var corruptReplica func(tb *testbed)

// verifyReplicas checks the state the timed phases left behind. Every key
// must be Valid with byte-identical values at all three replicas, and the
// value must be the last write of one of the sessions that wrote the key (the
// preloaded value if none did): a session's writes to a key are issued in
// order over one connection to one coordinator, so an older one surviving
// means an acknowledged write was lost.
func (d *driver) verifyReplicas(tb *testbed) error {
	if err := tb.settle(d.w, 5*time.Second); err != nil {
		return err
	}
	if corruptReplica != nil {
		corruptReplica(tb)
	}
	for k := uint64(0); k < d.w.Keys; k++ {
		key := proto.Key(k)
		ref, _ := tb.nodes[0].ReadLocal(key)
		for _, n := range tb.nodes[1:] {
			if v, _ := n.ReadLocal(key); !bytes.Equal(v, ref) {
				return fmt.Errorf("key %d differs between node 0 and node %d", k, n.ID())
			}
		}
		session, seq := getHeader(ref)
		wrote := false
		ok := false
		for _, s := range d.sess {
			if s.issued[k] != s.acked[k] {
				return fmt.Errorf("key %d: session %d issued write %d but the last acknowledged is %d", k, s.id, s.issued[k], s.acked[k])
			}
			if s.acked[k] != 0 {
				wrote = true
				ok = ok || (session == uint64(s.id) && seq == s.acked[k])
			}
		}
		if !wrote {
			ok = session == preloadSession && seq == preloadSeq
		}
		if !ok {
			return fmt.Errorf("key %d holds write (%d, %d), which is not the last acknowledged write of any session", k, session, seq)
		}
		body := make([]byte, d.w.ValueSize-headerLen) // the preload writes zeros
		if session != preloadSession {
			body = d.sess[session].val[headerLen:]
		}
		if !bytes.Equal(ref[headerLen:], body) {
			return fmt.Errorf("key %d: value body is not what session %d writes", k, session)
		}
	}
	return nil
}

// audit runs a short depth-1 mix of reads, writes, FAAs and CASes from both
// coordinators on fresh keys and checks the history for linearizability.
func audit(clients []*client.Client, firstKey uint64, seed int64, dur time.Duration, maxOps int) (ops int, err error) {
	var (
		mu   sync.Mutex
		hist = linear.NewHistory()
		wg   sync.WaitGroup
		errs = make([]error, len(clients))
	)
	base := time.Now()
	for s, c := range clients {
		wg.Add(1)
		go func(s int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(s)))
			seen := make(map[proto.Key]proto.Value) // last value this session observed per key
			for i := 0; i < maxOps && time.Since(base) < dur; i++ {
				id := uint64(s)<<32 | uint64(i)
				key := proto.Key(firstKey + uint64(rng.Intn(auditKeys)))
				arg := proto.EncodeInt64(int64(id))
				mu.Lock()
				at := time.Since(base)
				var kind linear.Kind
				var exp proto.Value
				switch rng.Intn(4) {
				case 0:
					kind = linear.KRead
					arg = nil
				case 1:
					kind = linear.KWrite
				case 2:
					kind = linear.KFAA
					arg = proto.EncodeInt64(1)
				default:
					kind = linear.KCASOk
					exp = seen[key]
				}
				hist.Invoke(id, key, kind, arg, exp, at)
				mu.Unlock()

				var out proto.Value
				var opErr error
				switch kind {
				case linear.KRead:
					out, opErr = c.Read(key)
					seen[key] = out
				case linear.KWrite:
					opErr = c.Write(key, arg)
					seen[key] = arg
				case linear.KFAA:
					var prior int64
					prior, opErr = c.FAA(key, 1)
					out = proto.EncodeInt64(prior)
				default:
					var swapped bool
					swapped, out, opErr = c.CAS(key, exp, arg)
					if opErr == nil && !swapped {
						kind = linear.KCASFail
						seen[key] = out
					}
				}
				mu.Lock()
				switch {
				case opErr == nil:
					hist.Return(id, kind, out, time.Since(base))
				case errors.Is(opErr, client.ErrAborted):
					hist.Discard(id) // an aborted RMW had no effect
				default:
					errs[s] = fmt.Errorf("audit op %d (%v on key %d): %w", i, kind, key, opErr)
				}
				ops++
				mu.Unlock()
				if errs[s] != nil {
					return
				}
			}
		}(s, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return ops, err
	}
	hist.Close()
	if key, res, ok := hist.CheckAll(); !ok {
		return ops, fmt.Errorf("audit: history of key %d is not linearizable: %s", key, res.Info)
	}
	return ops, nil
}
