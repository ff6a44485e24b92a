package core

// Protocol transition table (paper §3.2, Figure 3, and the RMW rules of
// §3.6), as implemented by this package. States are per key, per replica:
//
//	Valid    the local value is committed and current; reads serve locally.
//	Invalid  a newer write is in flight elsewhere; reads stall.
//	Write    this replica coordinates an in-flight write/RMW for the key.
//	Replay   this replica replays a write it learned through an INV.
//	Trans    a coordinator in Write/Replay whose update was superseded by a
//	         higher-timestamp INV; it still completes its own (committed)
//	         update, then falls to Invalid awaiting the newer write's VAL.
//
// Events and transitions (TS comparisons are on the [version, cid] tuple):
//
//	event                        guard                        actions, next state
//	-------------------------------------------------------------------------------
//	client read                  Valid                        reply value          Valid
//	client read                  not Valid                    queue; arm mlt       (same)
//	client write/RMW             Valid, no pend               CTS (+2 write/+1 RMW),
//	                                                          apply locally, bcast
//	                                                          INV                  Write
//	client write/RMW             otherwise                    queue                (same)
//	INV(ts,val) recv             ts > local, no pend          apply val/ts, ACK    Invalid
//	INV(ts,val) recv             ts > local, pend write       apply val/ts, ACK    Trans
//	INV(ts,val) recv             ts > local, pend replay      drop pend, apply,ACK Invalid
//	INV(ts,val) recv             ts > local, pend RMW         CRMW-abort: complete
//	                                                          Aborted, apply, ACK  Invalid
//	INV(ts)     recv             ts <= local, write INV       ACK only             (same)
//	INV(ts)     recv (RMW flag)  ts < local                   reply local-state
//	                                                          INV (no ACK)         (same)
//	ACK(ts)     recv             pend && ts == pend.ts        record; if write set
//	                                                          covered: complete op,
//	                                                          VAL bcast*           Valid†
//	VAL(ts)     recv             ts == local, no pend         validate; drain
//	                                                          waiters              Valid
//	VAL(ts)     recv             ts == local == pend.ts       someone replayed our
//	                                                          write: complete op   Valid
//	VAL(ts)     recv             ts != local                  ignore               (same)
//	mlt expiry                   pend                         re-bcast INV to
//	                                                          unACKed              (same)
//	mlt expiry                   Invalid, armed               take coordinator
//	                                                          role, bcast INV with
//	                                                          original ts/val      Replay
//	m-update (view change)       pend write                   drop ACKs owed by
//	                                                          removed nodes; re-
//	                                                          bcast with new epoch (same)
//	m-update                     pend RMW                     CRMW-replay: reset
//	                                                          all ACKs, re-bcast   (same)
//	any message, epoch mismatch  —                            drop                 (same)
//
//	*  Only when the key still holds our timestamp: a superseded write
//	   commits in silence (O1 below).
//	†  Invalid instead if a higher-ts INV superseded us while gathering ACKs
//	   (the Trans case); Valid-with-drain if the newer write validated first.
//
// Optimizations (§3.3): O1 is the only behaviour: a coordinator whose write
// was superseded while it gathered ACKs sends no VAL and nothing in its
// place. Followers validate only on an exact timestamp match and no VAL for
// the outranked timestamp exists, so a follower still holding that copy
// stays Invalid until the rival's retransmission, its VAL or a §3.4 replay
// moves it on. O2, switchable in Config as VirtualIDs, has writes stamp a
// random virtual cid owned by the node, spreading same-version tiebreak
// wins fairly. O3 (followers broadcast ACKs and validate without a VAL) was
// priced on the live benchmark at N = 3 and deleted: it cost CPU and
// latency on every workload.
//
// §8 (NoLSC) read validation: reads execute speculatively and are released
// when a subsequent local commit (ACKs from all live ⊇ majority) or an
// explicit MCheck acknowledged by a majority proves current membership.
