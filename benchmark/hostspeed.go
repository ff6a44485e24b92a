package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox is a few cores of a shared host, and what its neighbours do
// changes how much work a CPU-second buys here by tens of per cent, for
// stretches of seconds to many minutes (README.md, "Host speed"). No statistic
// over one run can remove a disturbance that outlasts the run, so every timed
// window is measured against a fixed piece of reference work run right before
// and right after it, and the end-to-end times are reported at the reference
// speed: the same technique as chopping a signal against a reference to get
// rid of drift.
//
// The reference work is two kernels that imports nothing from the repository,
// so that no change to the program under test can move it: loopback TCP round
// trips (system calls and the kernel's TCP path, a quarter of the benchmark's
// CPU time) and a dependent chain of loads over a table larger than the L2
// cache (memory latency, which follows what the neighbours do to the shared
// cache). Each runs on as many OS threads as the load generator has sessions.
// Changing either kernel, or a constant below, rescales every end-to-end time:
// a later change must leave them alone or re-measure its parent too.
const (
	probeThreads = sessions
	chainLen     = 8 << 20 // uint32 entries: 32 MiB
	tripBytes    = 128
	tripBatch    = 16   // round trips between two looks at the clock
	loadBatch    = 2048 // loads between two looks at the clock

	// The rates the reference sandbox (2 vCPUs, Xeon 2.1 GHz, Linux 6.18,
	// go1.24) shows when its host is quiet, summed over the threads. A host
	// speed of 1 is this.
	refTripsPerSec = 3.7e5
	refLoadsPerSec = 1.6e7
)

// probeTableMiB is what the probe's table adds to the process's resident set.
const probeTableMiB = chainLen * 4 >> 20

type hostProbe struct {
	near, far [probeThreads]net.Conn // thread t writes to near[t] and reads it back from far[t]
	table     []byte                 // the mapping behind chain
	chain     []uint32               // chain[i] is the index to load next: one cycle through the table
}

func newHostProbe() (*hostProbe, error) {
	// The table is mapped, not allocated: on the collected heap it would
	// count as live data and let the program's heap grow that much further
	// between collections than it does when deployed.
	table, err := syscall.Mmap(-1, 0, chainLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: map table: %w", err)
	}
	p := &hostProbe{table: table, chain: unsafe.Slice((*uint32)(unsafe.Pointer(&table[0])), chainLen)}
	// A full-period linear congruential step (multiplier ≡ 1 mod 4, odd
	// increment, modulus a power of two) visits every entry once, in an
	// order the hardware prefetcher cannot follow.
	for i := range p.chain {
		p.chain[i] = (uint32(i)*2891336453 + 12345) % chainLen
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer ln.Close()
	for t := 0; t < probeThreads; t++ {
		if p.near[t], err = net.Dial("tcp", ln.Addr().String()); err == nil {
			p.far[t], err = ln.Accept()
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
	}
	return p, nil
}

func (p *hostProbe) close() {
	for t := 0; t < probeThreads; t++ {
		if p.near[t] != nil {
			p.near[t].Close()
		}
		if p.far[t] != nil {
			p.far[t].Close()
		}
	}
	p.chain = nil
	syscall.Munmap(p.table) // fails only for a range that is not a mapping
}

// chainSink keeps the compiler from dropping the chain of loads.
var chainSink uint32

// hostSpeed is how fast the host runs the reference work, relative to the
// reference rates. The host slows a guest down in two ways, and they do not
// touch the same metrics. When it takes the cores away for a while (steal
// time), less gets done per second of wall time, but the guest's CPU clocks
// stop meanwhile: throughput and set-up time suffer, CPU per op and the
// median latency of ops that take a fraction of a millisecond do not. When
// the neighbours wear out what the cores share, everything gets slower. So the
// work is timed against both clocks: wall scales rates and long times, cpu
// scales CPU time and short latencies.
type hostSpeed struct {
	wall float64 // reference work per second of wall time
	cpu  float64 // reference work per second of the probing threads' CPU time
}

// threadCPU is the CPU time the calling thread has used; the caller is locked
// to its thread. (getrusage(RUSAGE_THREAD) reads the same clock but lags by
// up to a scheduling tick.)
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// kernelRates are one kernel's rates on one thread.
type kernelRates struct{ wall, cpu float64 }

// timeKernel runs batch, which does n units of work, until d has passed and
// returns the work done per second of wall time and of the thread's CPU time.
func timeKernel(d time.Duration, n int, batch func() error) (kernelRates, error) {
	cpu0, err := threadCPU()
	if err != nil {
		return kernelRates{}, err
	}
	done, start := 0, time.Now()
	for time.Since(start) < d {
		if err := batch(); err != nil {
			return kernelRates{}, err
		}
		done += n
	}
	wall := time.Since(start)
	cpu1, err := threadCPU()
	if err != nil {
		return kernelRates{}, err
	}
	if cpu1 <= cpu0 {
		return kernelRates{}, fmt.Errorf("the thread's CPU clock stood still over %v of work", wall)
	}
	return kernelRates{float64(done) / wall.Seconds(), float64(done) / (cpu1 - cpu0).Seconds()}, nil
}

// speed runs both kernels for d/2 each and returns the host's speed: per
// clock, the geometric mean of the two kernels' rates, summed over the
// threads, relative to the reference rates. Nothing else of the benchmark
// runs meanwhile.
func (p *hostProbe) speed(d time.Duration) (hostSpeed, error) {
	var (
		wg           sync.WaitGroup
		trips, loads [probeThreads]kernelRates
		ends         [probeThreads]uint32
		errs         [probeThreads]error
	)
	for t := 0; t < probeThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// One thread each, so that the kernel spreads them over the
			// cores as it does the program's threads.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			buf := make([]byte, tripBytes)
			trips[t], errs[t] = timeKernel(d/2, tripBatch, func() error {
				for i := 0; i < tripBatch; i++ {
					if _, err := p.near[t].Write(buf); err != nil {
						return err
					}
					if _, err := io.ReadFull(p.far[t], buf); err != nil {
						return err
					}
				}
				return nil
			})
			if errs[t] != nil {
				return
			}
			at := uint32(t) * (chainLen / probeThreads)
			loads[t], errs[t] = timeKernel(d/2, loadBatch, func() error {
				for i := 0; i < loadBatch; i++ {
					at = p.chain[at]
				}
				return nil
			})
			ends[t] = at
		}(t)
	}
	wg.Wait()
	var trip, load kernelRates
	for t := 0; t < probeThreads; t++ {
		if errs[t] != nil {
			return hostSpeed{}, fmt.Errorf("host probe: %w", errs[t])
		}
		trip.wall, trip.cpu = trip.wall+trips[t].wall, trip.cpu+trips[t].cpu
		load.wall, load.cpu = load.wall+loads[t].wall, load.cpu+loads[t].cpu
		chainSink += ends[t]
	}
	return hostSpeed{
		wall: math.Sqrt(trip.wall / refTripsPerSec * load.wall / refLoadsPerSec),
		cpu:  math.Sqrt(trip.cpu / refTripsPerSec * load.cpu / refLoadsPerSec),
	}, nil
}
