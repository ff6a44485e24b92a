package bench

import "testing"

// The headline claim of the sharded engine: write throughput scales with
// worker count. At quick scale, W=4 must commit at least 2× the writes of
// W=1 on uniform random keys (the acceptance bar; full scale does better).
func TestShardScalingAtLeast2xAt4Shards(t *testing.T) {
	w1, w4 := ShardScalingSpeedup(QuickScale(), 1, 4)
	if w1 <= 0 {
		t.Fatal("W=1 committed no writes")
	}
	if w4 < 2*w1 {
		t.Fatalf("W=4 throughput %.0f < 2x W=1 throughput %.0f (%.2fx)",
			w4, w1, w4/w1)
	}
	t.Logf("W=1: %.0f writes/s, W=4: %.0f writes/s (%.2fx)", w1, w4, w4/w1)
}

// Shard routing must keep per-shard load balanced on uniform keys, and the
// table must render all rows.
func TestShardScalingTableRenders(t *testing.T) {
	tbl := ShardScaling(QuickScale())
	if got := len(tbl.String()); got == 0 {
		t.Fatal("empty table")
	}
}
