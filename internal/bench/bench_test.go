package bench

import (
	"fmt"
	"testing"
	"time"
)

// tinyScale keeps shape tests fast.
func tinyScale() Scale {
	return Scale{Sessions: 4, Warmup: 300 * time.Microsecond, Duration: 3 * time.Millisecond, Keys: 1 << 12}
}

func TestSystemsString(t *testing.T) {
	for _, s := range []System{Hermes, CRAQ, ZAB, Lockstep} {
		if s.String() == "" || s.String() == "system(?)" {
			t.Fatalf("bad name for %d", s)
		}
	}
}

// The headline result (§6.1): Hermes outperforms rCRAQ and rZAB at every
// non-zero write ratio.
func TestFig5Shape(t *testing.T) {
	sc := tinyScale()
	for _, wr := range []float64{0.05, 0.20, 0.50} {
		h := Run(Point{System: Hermes, Nodes: 5, WriteRatio: wr}, sc)
		c := Run(Point{System: CRAQ, Nodes: 5, WriteRatio: wr}, sc)
		z := Run(Point{System: ZAB, Nodes: 5, WriteRatio: wr}, sc)
		if !(h.Throughput > c.Throughput && c.Throughput > z.Throughput) {
			t.Fatalf("wr=%.2f ordering violated: hermes=%.0f craq=%.0f zab=%.0f",
				wr, h.Throughput, c.Throughput, z.Throughput)
		}
	}
}

// Read-only: all three systems serve locally and perform equivalently
// (within noise), as in §6.1.
func TestReadOnlyEquivalent(t *testing.T) {
	sc := tinyScale()
	var tputs []float64
	for _, sys := range []System{Hermes, CRAQ, ZAB} {
		res := Run(Point{System: sys, Nodes: 5, WriteRatio: 0}, sc)
		if res.MsgsSent != 0 {
			t.Fatalf("%v sent %d messages on read-only", sys, res.MsgsSent)
		}
		tputs = append(tputs, res.Throughput)
	}
	for _, tp := range tputs[1:] {
		if tp < tputs[0]*0.9 || tp > tputs[0]*1.1 {
			t.Fatalf("read-only throughputs diverge: %v", tputs)
		}
	}
}

// Write latency shape (§6.3): Hermes writes commit in ~1 RTT; CRAQ writes
// traverse the chain — several times slower at equal load.
func TestWriteLatencyShape(t *testing.T) {
	sc := tinyScale()
	h := Run(Point{System: Hermes, Nodes: 5, WriteRatio: 0.05}, sc)
	c := Run(Point{System: CRAQ, Nodes: 5, WriteRatio: 0.05}, sc)
	if c.Write.Median() < 2*h.Write.Median() {
		t.Fatalf("CRAQ write median %v not >2x Hermes %v",
			c.Write.Median(), h.Write.Median())
	}
	// Reads stay local and fast for both.
	if h.Read.Median() > h.Write.Median() || c.Read.Median() > c.Write.Median() {
		t.Fatal("read median above write median")
	}
}

// Skew shape (§6.2): CRAQ's tail melts under Zipfian reads-after-writes;
// Hermes' reads stay local. The Hermes/CRAQ gap must widen under skew at a
// high write ratio.
func TestSkewShape(t *testing.T) {
	sc := tinyScale()
	const wr = 0.5
	hu := Run(Point{System: Hermes, Nodes: 5, WriteRatio: wr}, sc)
	cu := Run(Point{System: CRAQ, Nodes: 5, WriteRatio: wr}, sc)
	hz := Run(Point{System: Hermes, Nodes: 5, WriteRatio: wr, Zipf: true}, sc)
	cz := Run(Point{System: CRAQ, Nodes: 5, WriteRatio: wr, Zipf: true}, sc)
	gapUniform := hu.Throughput / cu.Throughput
	gapZipf := hz.Throughput / cz.Throughput
	if gapZipf <= gapUniform {
		t.Fatalf("skew did not widen the gap: uniform %.2fx, zipf %.2fx", gapUniform, gapZipf)
	}
}

// Scalability shape (Fig. 7): Hermes gains read throughput with more
// replicas at 1% writes; ZAB at 20% writes must not.
func TestFig7Shape(t *testing.T) {
	sc := tinyScale()
	h3 := Run(Point{System: Hermes, Nodes: 3, WriteRatio: 0.01}, sc)
	h7 := Run(Point{System: Hermes, Nodes: 7, WriteRatio: 0.01}, sc)
	if h7.Throughput < 1.5*h3.Throughput {
		t.Fatalf("Hermes did not scale 3->7: %.0f -> %.0f", h3.Throughput, h7.Throughput)
	}
	z5 := Run(Point{System: ZAB, Nodes: 5, WriteRatio: 0.20}, sc)
	z7 := Run(Point{System: ZAB, Nodes: 7, WriteRatio: 0.20}, sc)
	if z7.Throughput > 1.2*z5.Throughput {
		t.Fatalf("ZAB 'scaled' at 20%% writes: %.0f -> %.0f (leader should cap it)", z5.Throughput, z7.Throughput)
	}
}

// Fig. 8 shape: Hermes beats the lock-step total order on write-only
// traffic, and the gap narrows as object size grows.
func TestFig8Shape(t *testing.T) {
	sc := tinyScale()
	ratio := func(size int) float64 {
		h := Run(Point{System: Hermes, Nodes: 5, WriteRatio: 1, ValueSize: size, PerByte: true}, sc)
		d := Run(Point{System: Lockstep, Nodes: 5, WriteRatio: 1, ValueSize: size, PerByte: true}, sc)
		if d.Throughput == 0 {
			t.Fatal("lockstep made no progress")
		}
		return h.Throughput / d.Throughput
	}
	r32 := ratio(32)
	r1k := ratio(1024)
	if r32 <= 1 {
		t.Fatalf("Hermes does not beat lock-step at 32B: %.2fx", r32)
	}
	if r1k >= r32 {
		t.Fatalf("gap did not narrow with size: 32B=%.2fx 1KB=%.2fx", r32, r1k)
	}
}

// Fig. 9 shape: throughput dips to (near) zero after the crash and
// recovers after the timeout at a 4-node level.
func TestFig9Shape(t *testing.T) {
	out := Fig9(Scale{Sessions: 2, Keys: 1 << 12})
	rates := out.Series["5%"]
	if len(rates) < 25 {
		t.Fatalf("series too short: %d", len(rates))
	}
	pre := avg(rates[3:9])
	dip := minOf(rates[11:14])
	rec := avg(rates[len(rates)-4:])
	if dip > pre*0.3 {
		t.Fatalf("no crash dip: pre=%.0f dip=%.0f", pre, dip)
	}
	if rec < pre*0.5 {
		t.Fatalf("no recovery: pre=%.0f rec=%.0f", pre, rec)
	}
}

func TestTablesRender(t *testing.T) {
	sc := Scale{Sessions: 1, Warmup: 100 * time.Microsecond, Duration: 500 * time.Microsecond, Keys: 256}
	for name, tb := range map[string]fmt.Stringer{
		"table2": Table2(),
		"fig5a":  Fig5a(sc),
	} {
		if tb.String() == "" {
			t.Fatalf("%s rendered empty", name)
		}
	}
}

// Ablation smoke test: it must run and show the expected direction.
func TestAblationNoLSCDirection(t *testing.T) {
	tb := AblationNoLSC(tinyScale())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
}
