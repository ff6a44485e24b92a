package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// This file is the channel-headroom prover shared by the engine's blocking
// scan and lockorder: the question "can this send block?" answered by tracing the
// channel variable to where it is made.
//
// A send is provably non-blocking when the channel has buffer headroom by
// construction: a local `ch := make(chan T, N)` with constant N > 0 in the
// same function body, or a package-level variable initialized that way.
// Channels reached any other way — a struct field, a parameter, a function
// value's captured variable — are not traced, and a send on one is reported.
//
// "Headroom" is still an approximation: a cap-1 channel that has already
// received its one send has none.

// chanProvablyBuffered reports whether a send on ch cannot block for lack
// of buffer space, by the rule above. funcBody is the enclosing function
// body (used for local-variable tracing); it may be nil.
func chanProvablyBuffered(pass *Pass, ch ast.Expr, funcBody *ast.BlockStmt) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	return localChanBuffered(pass, obj, funcBody) || packageVarChanBuffered(pass, obj)
}

// localChanBuffered proves obj (a local channel variable) is bound in
// funcBody only from buffered makes.
func localChanBuffered(pass *Pass, obj types.Object, funcBody *ast.BlockStmt) bool {
	if funcBody == nil {
		return false
	}
	proved := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.Defs[lid] != obj || i >= len(as.Rhs) {
				continue
			}
			proved = bufferedMake(pass, as.Rhs[i])
		}
		return true
	})
	return proved
}

// packageVarChanBuffered proves obj is a package-level channel variable
// initialized with a buffered make.
func packageVarChanBuffered(pass *Pass, obj types.Object) bool {
	if obj.Parent() != pass.Pkg.Scope() {
		return false
	}
	proved := false
	forEachPackageValueSpec(pass, func(vs *ast.ValueSpec) {
		for i, name := range vs.Names {
			if pass.Info.Defs[name] == obj && i < len(vs.Values) {
				proved = bufferedMake(pass, vs.Values[i])
			}
		}
	})
	return proved
}

// bufferedMake proves x is a `make(chan T, N)` with constant N > 0.
func bufferedMake(pass *Pass, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok || !isBuiltinCall(pass.Info, call, "make") || len(call.Args) != 2 {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v > 0
}

// forEachPackageValueSpec visits every package-level var spec.
func forEachPackageValueSpec(pass *Pass, fn func(*ast.ValueSpec)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					fn(vs)
				}
			}
		}
	}
}
