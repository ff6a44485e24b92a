package proto

import (
	"testing"
	"testing/quick"
)

func TestTSOrdering(t *testing.T) {
	cases := []struct {
		name string
		a, b TS
		want int // a.Compare(b)
	}{
		{"zero-equal", TS{}, TS{}, 0},
		{"version-dominates", TS{Version: 2, CID: 0}, TS{Version: 1, CID: 9}, 1},
		{"version-dominates-rev", TS{Version: 1, CID: 9}, TS{Version: 2, CID: 0}, -1},
		{"cid-breaks-tie", TS{Version: 3, CID: 2}, TS{Version: 3, CID: 1}, 1},
		{"equal", TS{Version: 3, CID: 2}, TS{Version: 3, CID: 2}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Compare(c.b); got != c.want {
				t.Fatalf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
			}
			if got := c.a.After(c.b); got != (c.want > 0) {
				t.Fatalf("After(%v,%v)=%v want %v", c.a, c.b, got, c.want > 0)
			}
			if got := c.a.Before(c.b); got != (c.want < 0) {
				t.Fatalf("Before(%v,%v)=%v want %v", c.a, c.b, got, c.want < 0)
			}
			if got := c.a.AtLeast(c.b); got != (c.want >= 0) {
				t.Fatalf("AtLeast(%v,%v)=%v want %v", c.a, c.b, got, c.want >= 0)
			}
		})
	}
}

// Timestamps must be a strict total order: exactly one of <, =, > holds for
// every pair, and the order is transitive. This is what lets every Hermes
// replica locally establish the same global order of writes to a key.
func TestTSTotalOrderProperties(t *testing.T) {
	trichotomy := func(a, b TS) bool {
		n := 0
		if a.After(b) {
			n++
		}
		if b.After(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(trichotomy, nil); err != nil {
		t.Fatalf("trichotomy violated: %v", err)
	}
	transitive := func(a, b, c TS) bool {
		if a.After(b) && b.After(c) {
			return a.After(c)
		}
		return true
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Fatalf("transitivity violated: %v", err)
	}
	antisym := func(a, b TS) bool {
		if a.After(b) {
			return !b.After(a)
		}
		return true
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Fatalf("antisymmetry violated: %v", err)
	}
}

func TestTSIsZero(t *testing.T) {
	if !(TS{}).IsZero() {
		t.Fatal("zero TS should be zero")
	}
	if (TS{Version: 1}).IsZero() || (TS{CID: 1}).IsZero() {
		t.Fatal("non-zero TS reported zero")
	}
}

func TestViewMembership(t *testing.T) {
	v := View{Epoch: 3, Members: []NodeID{0, 1, 2, 4}, Learners: []NodeID{6}}
	if !v.Contains(2) || v.Contains(3) || v.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if !v.IsLearner(6) || v.IsLearner(1) {
		t.Fatal("IsLearner wrong")
	}
	if got := v.Quorum(); got != 3 {
		t.Fatalf("Quorum=%d want 3", got)
	}
	others := v.Others(1)
	if len(others) != 3 || others[0] != 0 || others[1] != 2 || others[2] != 4 {
		t.Fatalf("Others=%v", others)
	}
	ws := v.WriteSet(1)
	if len(ws) != 4 || ws[3] != 6 {
		t.Fatalf("WriteSet=%v want members-self plus learners", ws)
	}
	// Learner initiating (e.g. replayed write during catch-up) excludes itself.
	ws = v.WriteSet(6)
	if len(ws) != 4 {
		t.Fatalf("WriteSet(learner)=%v", ws)
	}
}

func TestViewCloneIsDeep(t *testing.T) {
	v := View{Epoch: 1, Members: []NodeID{0, 1}, Learners: []NodeID{2}}
	c := v.Clone()
	c.Members[0] = 9
	c.Learners[0] = 9
	if v.Members[0] != 0 || v.Learners[0] != 2 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestValueClone(t *testing.T) {
	if Value(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
	v := Value{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("clone aliases source")
	}
}

func TestOpKindPredicates(t *testing.T) {
	if OpRead.IsUpdate() || OpRead.IsRMW() {
		t.Fatal("read misclassified")
	}
	if !OpWrite.IsUpdate() || OpWrite.IsRMW() {
		t.Fatal("write misclassified")
	}
	for _, k := range []OpKind{OpCAS, OpFAA} {
		if !k.IsUpdate() || !k.IsRMW() {
			t.Fatalf("%v misclassified", k)
		}
	}
}

func TestStringers(t *testing.T) {
	// Smoke-test the human-readable forms used in logs and test failures.
	if s := (TS{Version: 4, CID: 2}).String(); s != "4.2" {
		t.Fatalf("TS.String=%q", s)
	}
	if OpCAS.String() != "cas" || OpKind(200).String() == "" {
		t.Fatal("OpKind.String wrong")
	}
	if Aborted.String() != "aborted" || Status(200).String() == "" {
		t.Fatal("Status.String wrong")
	}
	if (View{Epoch: 1}).String() == "" {
		t.Fatal("View.String empty")
	}
}
