package main

import "testing"

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{n: 5000, q: 0.99, want: 0.99},   // 50 samples beyond p99
		{n: 1000, q: 0.99, want: 0.99},   // exactly 10 beyond
		{n: 500, q: 0.99, want: 0.98},    // p99 would leave 5: lowered to p98
		{n: 5000, q: 0.999, want: 0.998}, // p99.9 would leave 5
		{n: 19, q: 0.99, want: 0.5},      // too few for any tail
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.q); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestGoodQuartile(t *testing.T) {
	five := []float64{5, 1, 9, 3, 7}
	if s := goodQuartile(five, false); s.value != 3 || s.lo != 1 || s.hi != 9 {
		t.Errorf("lower is better: %+v, want the second smallest", s)
	}
	if s := goodQuartile(five, true); s.value != 7 {
		t.Errorf("higher is better: %+v, want the second largest", s)
	}
	if s := goodQuartile([]float64{4}, true); s.value != 4 {
		t.Errorf("one value: %+v", s)
	}
	if s := goodQuartile(nil, false); s != (summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if s := median([]float64{5, 1, 9, 3, 7}); s.value != 5 || s.lo != 1 || s.hi != 9 {
		t.Errorf("five values: %+v, want the middle one", s)
	}
	if s := median([]float64{4, 1, 2, 8}); s.value != 3 {
		t.Errorf("four values: %+v, want the mean of the middle two", s)
	}
	if s := median(nil); s != (summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

// A phase's metrics are taken over its windows, each window merged over both
// sessions and brought to reference host speed: windows that a slow host made
// slower read the same as the others, and two windows in five disturbed by
// something the probe did not see leave the median untouched.
func TestPhaseWindowStatistics(t *testing.T) {
	var ph phase
	for i := 0; i < windows; i++ {
		slow, speed := 1, hostSpeed{wall: 1, cpu: 1}
		switch i {
		case 0, 1:
			slow = 2 + i // disturbed behind the probe's back: fewer ops, each slower and dearer
		case 2:
			slow, speed = 2, hostSpeed{wall: 0.5, cpu: 0.5} // the host ran at half speed and the probe saw it
		}
		w := &window{start: int64(i) * 1e9, end: int64(i+1) * 1e9, speed: speed}
		for s := 0; s < sessions; s++ {
			for n := 0; n < 600/slow; n++ {
				w.lat[s][classRead] = append(w.lat[s][classRead], uint32(1000*slow))
			}
		}
		w.cpu = float64(w.ops() * 2 * slow)
		ph = append(ph, w)
	}
	if got := ph.throughput(); got.value != 1200 || got.lo != 400 || got.raw != 600 {
		t.Errorf("throughput %+v, want 1200/s (600/s as timed) with the slowest window at 400/s", got)
	}
	if got := ph.cpuPerOp(); got.value != 2 || got.hi != 6 || got.raw != 4 {
		t.Errorf("cpu per op %+v, want 2 us (4 us as timed) with the dearest window at 6", got)
	}
	if got := ph.latency(classRead, 0.5); got.value != 1 || got.n != ph.totalOps() {
		t.Errorf("read p50 %+v, want 1 us over %d samples", got, ph.totalOps())
	}
	if got := ph.latency(classUpdate, 0.5); got != (summary{}) {
		t.Errorf("a class without samples reports %+v", got)
	}
	// The traced run's windows carry no speed and are taken as timed.
	for _, w := range ph {
		w.speed = hostSpeed{}
	}
	if got := ph.throughput(); got.value != 600 || got.raw != 600 {
		t.Errorf("unprobed windows: throughput %+v, want 600/s", got)
	}
}
