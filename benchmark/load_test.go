package main

import (
	"hash/fnv"
	"testing"
)

func streamHash(w workloadSpec, seed int64) uint64 {
	h := fnv.New64a()
	for s := 0; s < sessions; s++ {
		ops := newOpStream(w, seed, s)
		for i := 0; i < 2000; i++ {
			key, update := ops.next()
			b := [9]byte{byte(key), byte(key >> 8), byte(key >> 16), byte(key >> 24), byte(key >> 32), byte(key >> 40), byte(key >> 48), byte(key >> 56)}
			if update {
				b[8] = 1
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func TestSeedDeterminesOpStream(t *testing.T) {
	for _, w := range workloads {
		if streamHash(w, 7) != streamHash(w, 7) {
			t.Errorf("%s: same seed, different op stream", w.Name)
		}
		if streamHash(w, 7) == streamHash(w, 8) {
			t.Errorf("%s: different seeds, same op stream", w.Name)
		}
	}
}

func TestSessionsDrawDistinctStreams(t *testing.T) {
	w := workloads[0]
	a, b := newOpStream(w, 1, 0), newOpStream(w, 1, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		ka, _ := a.next()
		kb, _ := b.next()
		if ka == kb {
			same++
		}
	}
	if same > 500 {
		t.Errorf("sessions 0 and 1 drew the same key %d times in 1000", same)
	}
}
