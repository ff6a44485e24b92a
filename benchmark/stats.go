package main

import (
	"math"
	"slices"
	"sort"
)

// tailMin is how many samples must lie beyond a reported percentile.
const tailMin = 10

// tailQuantile lowers the wanted quantile q until at least tailMin of n
// samples lie beyond it; below 2*tailMin samples it settles for the median.
func tailQuantile(n int, q float64) float64 {
	if n < 2*tailMin {
		return 0.5
	}
	if most := 1 - float64(tailMin)/float64(n); q > most {
		return most
	}
	return q
}

// quantile returns the q-quantile of sorted by nearest rank (0 when empty).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// summary is one statistic over per-window values with the extremes it was
// taken from.
type summary struct {
	value, lo, hi float64
	raw           float64 // the same statistic before the values were brought to reference host speed
	n             int     // samples, where the values are percentiles
}

// goodQuartile summarises values by the quartile on their good side: the
// second smallest of five where lower is better, the second largest where
// higher is. It suits raw timings of short batches (the ladder's), where
// whatever interferes — a collection, a descheduling — only ever makes a
// batch slower. An empty input gives zeros.
func goodQuartile(vals []float64, higherIsBetter bool) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := len(s) / 4
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return summary{value: s[i], lo: s[0], hi: s[len(s)-1]}
}

// median summarises values by their median (the mean of the middle two of an
// even number). An empty input gives zeros.
func median(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{value: (s[(len(s)-1)/2] + s[len(s)/2]) / 2, lo: s[0], hi: s[len(s)-1]}
}

// scaling says which of the host's two speeds (hostspeed.go) a kind of value
// follows.
type scaling int

const (
	perWallSecond scaling = iota // a rate: divided by the wall speed
	cpuBound                     // CPU time, or a latency far below a scheduling slice: multiplied by the cpu speed
)

// atReference summarises one value per window: each is brought to reference
// host speed with the speed measured around its window, and the median of
// those is the value. After that correction a window is as likely to read
// high as low — the probe's own error has no sign — which is why this is the
// median and not a quartile on the good side. Windows whose speed was not
// measured (the traced run's) count as measured at speed 1.
func (ph phase) atReference(how scaling, val func(w *window) (v float64, ok bool)) summary {
	var raw, ref []float64
	for _, w := range ph {
		v, ok := val(w)
		if !ok {
			continue
		}
		raw = append(raw, v)
		switch {
		case w.speed == (hostSpeed{}):
			ref = append(ref, v)
		case how == perWallSecond:
			ref = append(ref, v/w.speed.wall)
		default:
			ref = append(ref, v*w.speed.cpu)
		}
	}
	s := median(ref)
	s.raw = median(raw).value
	return s
}

// merged gathers the window's samples of a class from every session, sorted.
func (w *window) merged(class int) []uint32 {
	var all []uint32
	for s := range w.lat {
		all = append(all, w.lat[s][class]...)
	}
	slices.Sort(all)
	return all
}

// ops counts the window's completed ops.
func (w *window) ops() int {
	n := 0
	for s := range w.lat {
		for c := range w.lat[s] {
			n += len(w.lat[s][c])
		}
	}
	return n
}

// latency is a class's q-quantile per window, in microseconds, at reference
// host speed. Windows without samples of the class are left out.
func (ph phase) latency(class int, q float64) summary {
	total := 0
	s := ph.atReference(cpuBound, func(w *window) (float64, bool) {
		all := w.merged(class)
		total += len(all)
		return quantile(all, tailQuantile(len(all), q)) / 1e3, len(all) > 0
	})
	s.n = total
	return s
}

// totalOps counts the phase's completed ops.
func (ph phase) totalOps() int {
	n := 0
	for _, w := range ph {
		n += w.ops()
	}
	return n
}

// throughput is completed ops per second per window, at reference host speed.
func (ph phase) throughput() summary {
	return ph.atReference(perWallSecond, func(w *window) (float64, bool) {
		return float64(w.ops()) / (float64(w.end-w.start) / 1e9), true
	})
}

// cpuPerOp is process CPU microseconds per completed op per window, at
// reference host speed: all three replicas, both servers and the load
// generator.
func (ph phase) cpuPerOp() summary {
	return ph.atReference(cpuBound, func(w *window) (float64, bool) {
		n := w.ops()
		return w.cpu / float64(max(n, 1)), n > 0
	})
}
