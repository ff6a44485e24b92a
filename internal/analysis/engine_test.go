package analysis

import (
	"go/types"
	"testing"
)

// loadEngine builds the fixpoint engine over the testdata/engine fixture.
func loadEngine(t *testing.T) *Engine {
	t.Helper()
	pkgs, err := Load("testdata", "./engine/...")
	if err != nil {
		t.Fatalf("loading engine fixture: %v", err)
	}
	var pkg *Package
	for _, p := range pkgs {
		if p.Types.Name() == "engine" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("engine fixture package not loaded")
	}
	pass := &Pass{
		Analyzer: RefTrackAnalyzer,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	return NewEngine(pass)
}

func fnNamed(t *testing.T, eng *Engine, name string) *types.Func {
	t.Helper()
	for _, fn := range eng.Order() {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %q not in engine order", name)
	return nil
}

func sumOf(t *testing.T, eng *Engine, name string) *Summary {
	t.Helper()
	sum := eng.SummaryOf(fnNamed(t, eng, name))
	if sum == nil {
		t.Fatalf("no summary for %q", name)
	}
	return sum
}

func TestEngineConsumesParamFixpoint(t *testing.T) {
	eng := loadEngine(t)
	cases := []struct {
		fn   string
		idx  int
		want bool
	}{
		{"consume", 0, true},
		{"keep", 0, false},
		// Recursion: the optimistic init keeps the recursive call consuming
		// until (unless) an iteration disproves it.
		{"consumeRec", 0, true},
		{"pingConsume", 0, true},
		{"pongConsume", 0, true},
		// The base path of spinLeak never spends, so the fixpoint refines the
		// optimistic "consumes" down to false.
		{"spinLeak", 0, false},
		// An interface call is an unknown callee: conservatively consumes
		// nothing.
		{"viaInterface", 1, false},
	}
	for _, tc := range cases {
		sum := sumOf(t, eng, tc.fn)
		if got := sum.ConsumesParam[tc.idx]; got != tc.want {
			t.Errorf("%s: ConsumesParam[%d] = %v, want %v", tc.fn, tc.idx, got, tc.want)
		}
	}
}

func TestEngineResultAndAliasSummaries(t *testing.T) {
	eng := loadEngine(t)
	if sum := sumOf(t, eng, "getRetained"); !sum.ResultAcquired[0] {
		t.Error("getRetained: result 0 should be acquired (returned retained buffer)")
	}
	if sum := sumOf(t, eng, "passthrough"); sum.ResultAliasesParam[0] != 0 {
		t.Errorf("passthrough: ResultAliasesParam[0] = %d, want 0", sum.ResultAliasesParam[0])
	}
	// Aliasing propagates through a same-package helper call.
	if sum := sumOf(t, eng, "throughHelper"); sum.ResultAliasesParam[0] != 0 {
		t.Errorf("throughHelper: ResultAliasesParam[0] = %d, want 0 (transitive)", sum.ResultAliasesParam[0])
	}
	if sum := sumOf(t, eng, "cloned"); sum.ResultAliasesParam[0] != -1 {
		t.Errorf("cloned: ResultAliasesParam[0] = %d, want -1 (append clones)", sum.ResultAliasesParam[0])
	}
	if sum := sumOf(t, eng, "rawVal"); sum.ResultAliasesParam[0] != 0 {
		t.Errorf("rawVal: ResultAliasesParam[0] = %d, want 0 (unguarded field alias)", sum.ResultAliasesParam[0])
	}
	// The owner-nil guard: `if e.Owner != nil { return clone }` proves the
	// fall-through return aliases only unpooled bytes.
	if sum := sumOf(t, eng, "condClone"); sum.ResultAliasesParam[0] != -1 {
		t.Errorf("condClone: ResultAliasesParam[0] = %d, want -1 (conditional clone)", sum.ResultAliasesParam[0])
	}
}

func TestEngineBlockAndLockSummaries(t *testing.T) {
	eng := loadEngine(t)
	if sum := sumOf(t, eng, "blockRecv"); !sum.MayBlock || sum.BlockNote != "channel receive" {
		t.Errorf("blockRecv: MayBlock=%v note=%q, want blocking channel receive", sum.MayBlock, sum.BlockNote)
	}
	if sum := sumOf(t, eng, "indirectBlock"); !sum.MayBlock || sum.BlockNote != "blockRecv: channel receive" {
		t.Errorf("indirectBlock: MayBlock=%v note=%q, want callee-propagated note", sum.MayBlock, sum.BlockNote)
	}
	if sumOf(t, eng, "pure").MayBlock {
		t.Error("pure must not block")
	}
	// A mutex wait is a site of the blocking scan (eventloop reports it) but
	// not of the MayBlock summary (lockorder's order graph owns locks).
	if sites := eng.sites[fnNamed(t, eng, "lockIt")]; len(sites) != 1 || !sites[0].lock || sites[0].note != "sync.Mutex.Lock" {
		t.Errorf("lockIt: scan = %+v, want the one Lock wait", sites)
	}
	if sumOf(t, eng, "lockIt").MayBlock || sumOf(t, eng, "indirectLock").MayBlock {
		t.Error("a mutex wait must not make MayBlock")
	}

	if sum := sumOf(t, eng, "lockIt"); len(sum.Acquires) != 1 || sum.Acquires[0] != "S.mu" {
		t.Errorf("lockIt: Acquires = %v, want [S.mu]", sum.Acquires)
	}
	if sum := sumOf(t, eng, "indirectLock"); len(sum.Acquires) != 1 || sum.Acquires[0] != "S.mu" {
		t.Errorf("indirectLock: Acquires = %v, want [S.mu] (transitive)", sum.Acquires)
	}
}

func TestEngineUnknownCalleeFallback(t *testing.T) {
	eng := loadEngine(t)
	if eng.SummaryOf(nil) != nil {
		t.Error("nil callee must have a nil summary")
	}
	// An interface method has no body in the package: its summary must be
	// nil so analyzers report the conservative assumption instead of
	// silently trusting it.
	obj := eng.pass.Pkg.Scope().Lookup("Pusher")
	if obj == nil {
		t.Fatal("Pusher not found in fixture scope")
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		t.Fatal("Pusher is not an interface with methods")
	}
	if eng.SummaryOf(iface.Method(0)) != nil {
		t.Error("interface method must have no summary (conservative, reported fallback)")
	}
}
