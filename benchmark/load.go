package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/workload"
)

// The load model is a closed loop: each session keeps a fixed number of ops
// outstanding and issues the next one when a reply returns one of its slots.
// Hermes clients are sessions that wait for replies (the wire protocol is
// windowed), so this is the load the system is built for; see README.md for
// the open-loop trial that was rejected.

// Every written value starts with a header of (session, seq), 8 bytes each.
// The preload writes (preloadSession, preloadSeq); a session's timed writes
// count seq from 1.
const (
	headerLen      = 16
	preloadSession = 0xFF
	preloadSeq     = 0
)

func putHeader(val []byte, session, seq uint64) {
	binary.LittleEndian.PutUint64(val, session)
	binary.LittleEndian.PutUint64(val[8:], seq)
}

func getHeader(val []byte) (session, seq uint64) {
	return binary.LittleEndian.Uint64(val), binary.LittleEndian.Uint64(val[8:])
}

// opStream draws one session's operations. Everything it produces follows
// from the seed; the program under test sees only the ops.
type opStream struct {
	rng      *rand.Rand
	keys     workload.KeyChooser
	readFrac float64
}

func newOpStream(w workloadSpec, seed int64, session int) *opStream {
	var keys workload.KeyChooser = workload.Uniform{N: w.Keys}
	if w.Zipf {
		keys = workload.NewZipfian(w.Keys, 0.99, true)
	}
	// Distinct, seed-determined streams per session.
	src := rand.NewSource(seed*1000003 + int64(session)*7919 + 1)
	return &opStream{rng: rand.New(src), keys: keys, readFrac: w.ReadFrac}
}

func (o *opStream) next() (proto.Key, bool) {
	key := o.keys.Next(o.rng)
	return key, o.rng.Float64() >= o.readFrac
}

const (
	classRead = iota
	classUpdate
	classes
)

// window is one stretch of closed-loop load at a fixed depth, the unit every
// metric is computed over. Each session appends only to its own slices, so
// recording takes no lock.
type window struct {
	start, end int64 // ns since the driver's base time; completions after end are not recorded
	// lat[session][class] holds issue→callback times in ns.
	lat [sessions][classes][]uint32
	cpu float64 // process user+system microseconds spent between start and end
	// speed is the host's speed around the window (hostspeed.go), the mean of
	// the probe before and the probe after; zero when it was not measured.
	speed hostSpeed
}

// phase is a set of windows run at one depth.
type phase []*window

// slot is one outstanding op of a session; its callback is allocated once.
type slot struct {
	issued int64
	key    proto.Key
	seq    uint64 // non-zero for a write
	done   func(proto.ClientResp, error)
}

// loadSession is one client connection with its issuing goroutine's state.
type loadSession struct {
	id     int
	d      *driver
	c      *client.Client
	ops    *opStream
	val    []byte // scratch: header + seeded padding; the client encodes it before Do returns
	slots  []slot
	free   chan int // indices of idle slots; capacity satDepth
	win    atomic.Pointer[window]
	seq    uint64   // writes issued by this session
	issued []uint64 // per key: seq of this session's last write issued
	acked  []uint64 // per key: seq of this session's last write acknowledged

	attempted, failed atomic.Uint64
}

// driver owns the two sessions and the clock they share.
type driver struct {
	w    workloadSpec
	base time.Time
	sess [sessions]*loadSession
	tr   *tracer
	stop atomic.Bool

	unanswered int // ops that never returned, over all windows
}

func (d *driver) now() int64 { return int64(time.Since(d.base)) }

func newDriver(w workloadSpec, seed int64, tb *testbed) *driver {
	d := &driver{w: w, base: time.Now(), tr: tb.tr}
	if d.tr != nil {
		d.base = d.tr.base // one clock for every span
	}
	for i := range d.sess {
		s := &loadSession{
			id: i, d: d, c: tb.clients[i],
			ops:    newOpStream(w, seed, i),
			val:    make([]byte, w.ValueSize),
			slots:  make([]slot, satDepth),
			free:   make(chan int, satDepth),
			issued: make([]uint64, w.Keys),
			acked:  make([]uint64, w.Keys),
		}
		rand.New(rand.NewSource(seed + int64(i))).Read(s.val)
		for j := range s.slots {
			sl := &s.slots[j]
			j := j
			sl.done = func(r proto.ClientResp, err error) { s.complete(j, r, err) }
		}
		d.sess[i] = s
	}
	return d
}

// complete runs on the session's client read pump.
func (s *loadSession) complete(j int, r proto.ClientResp, err error) {
	now := s.d.now()
	sl := &s.slots[j]
	class := classRead
	if sl.seq != 0 {
		class = classUpdate
	}
	switch {
	case err != nil || r.Status != proto.OK:
		s.failed.Add(1)
	case class == classRead && len(r.Value) != s.d.w.ValueSize:
		s.failed.Add(1) // every key was preloaded with a whole value
	default:
		if class == classUpdate {
			s.acked[sl.key] = sl.seq
		}
		if w := s.win.Load(); now < w.end {
			lat := min(now-sl.issued, int64(^uint32(0)))
			w.lat[s.id][class] = append(w.lat[s.id][class], uint32(lat))
		}
	}
	s.free <- j
}

// issue runs the session's closed loop until the driver stops the window,
// then waits for the outstanding ops. It returns the number left unanswered.
func (s *loadSession) issue(depth int) (unanswered int) {
	d := s.d
	for j := 0; j < depth; j++ {
		s.free <- j
	}
	for {
		j := <-s.free
		if d.stop.Load() {
			s.free <- j
			break
		}
		sl := &s.slots[j]
		key, update := s.ops.next()
		sl.key, sl.seq = key, 0
		kind, val := proto.OpRead, proto.Value(nil)
		if update {
			s.seq++
			sl.seq = s.seq
			s.issued[key] = s.seq
			putHeader(s.val, uint64(s.id), s.seq)
			kind, val = proto.OpWrite, s.val
		}
		s.attempted.Add(1)
		sl.issued = d.now()
		err := s.c.Do(kind, key, val, nil, sl.done)
		if d.tr != nil && d.tr.on.Load() && d.tr.sample(spanDoCall) {
			id := readOpID(key)
			if update {
				id = writeOpID(uint64(s.id), s.seq)
			}
			d.tr.rings[spanDoCall].put(span{id: id, start: sl.issued, end: d.now()})
		}
		if err != nil {
			s.failed.Add(1)
			s.free <- j
		}
	}
	// An op unanswered five seconds after the window ended has failed.
	timeout := time.After(5 * time.Second)
	for got := 0; got < depth; got++ {
		select {
		case <-s.free:
		case <-timeout:
			unanswered = depth - got
			s.failed.Add(uint64(unanswered))
			return unanswered
		}
	}
	return 0
}

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window drives the first active sessions at the given depth for dur and
// returns what was recorded; ops left unanswered are added to d.unanswered.
func (d *driver) window(depth int, dur time.Duration, active int) *window {
	w := &window{start: d.now()}
	w.end = w.start + int64(dur)
	for _, s := range d.sess {
		s.win.Store(w)
	}
	d.stop.Store(false)
	var wg sync.WaitGroup
	var unanswered atomic.Int64
	for _, s := range d.sess[:active] {
		wg.Add(1)
		go func(s *loadSession) {
			defer wg.Done()
			unanswered.Add(int64(s.issue(depth)))
		}(s)
	}
	cpu := cpuMicros()
	time.Sleep(time.Duration(w.end - d.now()))
	w.cpu = cpuMicros() - cpu
	d.stop.Store(true)
	wg.Wait()
	d.unanswered += int(unanswered.Load())
	return w
}

// phase runs `windows` windows back to back at one depth.
func (d *driver) phase(depth int, dur time.Duration, active int) phase {
	var ph phase
	for i := 0; i < windows; i++ {
		ph = append(ph, d.window(depth, dur/windows, active))
	}
	return ph
}

// counts sums attempted and failed ops over both sessions.
func (d *driver) counts() (attempted, failed uint64) {
	for _, s := range d.sess {
		attempted += s.attempted.Load()
		failed += s.failed.Load()
	}
	return attempted, failed
}
