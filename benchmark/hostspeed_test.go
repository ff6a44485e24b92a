package main

import (
	"testing"
	"time"
)

// The probe's table is one cycle through all of its entries, so a walk never
// settles into a short loop that fits a cache, and a probe returns a speed.
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	at, steps := uint32(0), 0
	for {
		at = p.chain[at]
		steps++
		if at == 0 || steps > chainLen {
			break
		}
	}
	if steps != chainLen {
		t.Errorf("the chain returns to its start after %d steps, want %d", steps, chainLen)
	}
	for i := 0; i < 2; i++ { // a second probe reuses the first one's connections
		v, err := p.speed(10 * time.Millisecond)
		if err != nil || v.wall <= 0 || v.cpu < v.wall*0.5 {
			t.Errorf("probe %d: speed %v, error %v", i, v, err)
		}
	}
}
