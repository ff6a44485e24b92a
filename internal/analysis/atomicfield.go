package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicFieldAnalyzer requires typed atomics on struct fields: a
// package-level sync/atomic function (AddUint64, LoadInt32,
// CompareAndSwapPointer, ...) applied to &x.f is a finding. Declared as
// atomic.Uint64 (Int32, Bool, Pointer[T], ...) the field cannot be read or
// written plainly at all — that is a compile error — so a mixed
// atomic/plain access, a race the detector only catches when both sides run
// in the same test, cannot be written.
var AtomicFieldAnalyzer = &Analyzer{
	Name: "atomicfield",
	Doc:  "struct fields accessed atomically must be typed atomics (atomic.Uint64 etc.), not &x.f passed to sync/atomic functions",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := staticCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || recvTypeName(fn) != "" {
				return true
			}
			u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			sel, _ := ast.Unparen(u.X).(*ast.SelectorExpr)
			if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				pass.Reportf(call.Pos(), "atomic.%s on field %s: use atomic.Uint64 etc. on the field, so no access to it can be plain", fn.Name(), sel.Sel.Name)
			}
			return true
		})
	}
}
