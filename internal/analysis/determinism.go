package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the seeded-replay property of packages named
// "sim", "core", "shardhost" (the shard host both runtimes drive: the
// simulator replays it from a seed, so "no wall clock in the host" is a
// build-breaking check, not a convention) and "bench" (the figure harness
// runs on the simulator only; the live runtime is timed by benchmark/): the
// same seed must produce the same schedule, byte for byte. Three things
// break it:
//
//   - time.Now / time.Since — wall-clock reads diverge between runs; the
//     protocol's Env.Now and the sim's virtual clock exist for this.
//   - the global math/rand functions — their state is shared and unseeded;
//     use the engine's seeded *rand.Rand instance.
//   - ranging over a map where the body sends, schedules, or retransmits —
//     Go randomizes map iteration order, so the emission order differs per
//     run (the PR 4 retransmission-order bug). Collecting keys and sorting
//     first (core.sortedMetaKeys) is the sanctioned idiom and is not
//     flagged.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "bans wall-clock time, global math/rand, and map-order-dependent scheduling in seeded-replay packages",
	Run:  runDeterminism,
}

// scheduleVerbs are callee names that emit into the network/schedule; a call
// to one inside a map-range body makes the emission order map-order.
var scheduleVerbs = map[string]bool{
	"Send": true, "Deliver": true, "Submit": true, "SubmitAsync": true,
	"After": true, "Schedule": true, "Enqueue": true, "Retransmit": true,
	"Broadcast": true, "Complete": true,
}

func runDeterminism(pass *Pass) {
	switch pass.Pkg.Name() {
	case "sim", "core", "shardhost", "bench":
	default:
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s breaks seeded replay: use the injected clock (proto.Env.Now / the sim's virtual time)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (rand.New(rand.NewSource(seed))) are the sanctioned
		// way to build a seeded generator; only the package-level draws that
		// consult the shared global source are banned.
		if strings.HasPrefix(fn.Name(), "New") {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(),
				"global %s.%s uses shared unseeded state: draw from the engine's seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || !isMapType(tv.Type) {
		return
	}
	var verb string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if verb != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(pass.Info, call)
		if scheduleVerbs[name] {
			verb = name
			return false
		}
		return true
	})
	if verb != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order feeds %s: Go randomizes map order per run, so the schedule diverges under the same seed; collect keys, sort, then iterate (see core's sortedMetaKeys)", verb)
	}
}

// calleeName extracts the syntactic callee name of a call ("Send" from
// env.Send(...) or Send(...)); "" for indirect calls.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if isConversion(info, call) || isBuiltinCall(info, call, "") {
		return ""
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		// Skip package-qualified stdlib calls like strings.Contains — only
		// method-style or local calls are schedule emissions.
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return ""
			}
		}
		return fun.Sel.Name
	}
	return ""
}
