package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RefTrackAnalyzer enforces the refbuf ownership contract interprocedurally:
// every frame-buffer reference a function acquires — Retain, a TryRetain
// guard, Pool.Get, or a call whose summary returns a retained buffer — must
// be spent exactly once on every path: released, adopted into an Owner
// field, passed to a consuming call (known by summary within the package, or
// by the documented cross-package allowlist: ReleaseMsgOwners,
// ReleaseOwner), or returned to the caller. A same-package helper that
// consumes its argument is recognized by its summary, so passing a reference
// to it balances the books.
//
// It also owns the owner-escape check of the zero-copy value path. A struct
// carrying both a Value field and an `Owner *refbuf.Buf` field — core.INV,
// kvs.Entry — holds a value that may alias a pooled wire-frame buffer, alive
// only while its refcount is. Copying that Value out of its owner's side is
// the exact shape of both historical aliasing bugs (the chunk-transfer
// ChunkRec and the server response escape): once the entry is replaced, the
// pool recycles the frame and the escaped slice reads another frame's bytes.
// One walk over composite literals and field stores reports:
//
//   - escape: into an owner-less literal or field, a bare `x.Value` of an
//     owner-bearing x (depth 0), or the result of a same-package helper
//     whose aliasing summary says it returns such an argument's bytes
//     without a clone (any depth). A cross-package call, or a same-package
//     one that clones, passes; a local `v := e.Value` stays inside the
//     event-loop turn and is the legitimate working idiom;
//   - dropped owner: an owner-bearing literal that takes `Value: x.Value`
//     from an owner-bearing source without also setting Owner — an adoption
//     that silently forgets the reference it must hold.
//
// Unknown callees — dynamic calls, interface methods, cross-package
// functions with no body here — are conservatively assumed to consume
// nothing, and that assumption is carried into the diagnostic text rather
// than silently weakening the verdict.
var RefTrackAnalyzer = &Analyzer{
	Name: "reftrack",
	Doc:  "frame-buffer references must be spent exactly once on every path, and values aliasing them must not escape their owner (leaks, double releases and escapes, across call boundaries)",
	Run:  runRefTrack,
}

func runRefTrack(pass *Pass) {
	eng := pass.engine()
	for _, fn := range eng.Order() {
		decl := eng.Decls()[fn]
		if decl.Body == nil {
			continue
		}
		checkRefBalanceBody(pass, eng, decl.Body)
		// Function literals run their own balance scope (a closure may
		// legitimately spend at a later time, so references crossing the
		// boundary are unknown — but references acquired INSIDE the literal
		// must still balance inside it).
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkRefBalanceBody(pass, eng, fl.Body)
			}
			return true
		})
	}
	checkOwnerEscapes(pass, eng)
}

func checkRefBalanceBody(pass *Pass, eng *Engine, body *ast.BlockStmt) {
	in := newRefInterp(eng, func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format, args...)
	})
	st := in.newState()
	in.block(body, st)
	if !st.dead {
		in.recordExit(st, nil)
	}
	for _, ex := range in.exits {
		for _, info := range ex.state.refs {
			if info.unknown || info.obl == 0 {
				continue
			}
			in.reportf(info.pos,
				"frame-buffer reference acquired by %s is never spent on some path: release it, adopt it into an Owner field, or pass it to a consuming call%s",
				info.kind, noteSuffix(info.notes))
		}
	}
}

// checkOwnerEscapes is the owner-escape walk described on RefTrackAnalyzer.
func checkOwnerEscapes(pass *Pass, eng *Engine) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkLitEscapes(pass, eng, n)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					s, ok := pass.Info.Selections[sel]
					if !ok || s.Kind() != types.FieldVal || ownerBearing(s.Recv()) {
						continue
					}
					if ownedValueSel(pass.Info, n.Rhs[i]) {
						pass.Reportf(n.Rhs[i].Pos(),
							"value aliasing a pooled frame buffer is stored into a field of %s, which carries no owner: Clone() it at the boundary",
							typeName(s.Recv()))
						continue
					}
					reportAliasingCall(pass, eng, n.Rhs[i], "a struct field with no accompanying owner")
				}
			}
			return true
		})
	}
}

func checkLitEscapes(pass *Pass, eng *Engine, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	if ownerBearing(tv.Type) {
		// The destination carries an owner: adoption is fine, as long as the
		// owner comes along with an adopted Value.
		var adopted ast.Expr
		setsOwner := false
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if key.Name == "Owner" {
				setsOwner = true
			} else if key.Name == "Value" && ownedValueSel(pass.Info, kv.Value) {
				adopted = kv.Value
			}
		}
		if adopted != nil && !setsOwner {
			pass.Reportf(adopted.Pos(),
				"%s adopts a possibly pooled value but drops its owner: set Owner alongside Value (or Clone() the value)",
				typeName(tv.Type))
		}
		return
	}
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if ownedValueSel(pass.Info, val) {
			pass.Reportf(val.Pos(),
				"value aliasing a pooled frame buffer escapes into %s, which carries no owner: Clone() it at the boundary or give the destination the Owner reference",
				typeName(tv.Type))
			continue
		}
		reportAliasingCall(pass, eng, val, "a composite literal without an Owner field")
	}
}

// reportAliasingCall reports val when it is a call to a same-package helper
// whose result aliases an owner-carrying argument's bytes without a clone.
func reportAliasingCall(pass *Pass, eng *Engine, val ast.Expr, dest string) {
	call, ok := ast.Unparen(val).(*ast.CallExpr)
	if !ok {
		return
	}
	callee := staticCallee(pass.Info, call)
	sum := eng.SummaryOf(callee)
	if sum == nil {
		return
	}
	for ri, pi := range sum.ResultAliasesParam {
		if ri != 0 || pi < 0 || pi >= len(call.Args) {
			continue
		}
		arg := call.Args[pi]
		if !aliasesOwnedValue(pass, arg) {
			continue
		}
		pass.Reportf(val.Pos(),
			"value escaping into %s comes through %s, which returns its argument's bytes without a clone: the pooled frame buffer can be recycled under the reader (clone before storing, or carry the owner)",
			dest, callee.Name())
	}
}

// aliasesOwnedValue reports whether expr's bytes may belong to a pooled
// frame buffer: the Value field of an owner-bearing struct, or a slice or
// index thereof.
func aliasesOwnedValue(pass *Pass, expr ast.Expr) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return ownedValueSel(pass.Info, x)
	case *ast.SliceExpr:
		return aliasesOwnedValue(pass, x.X)
	case *ast.IndexExpr:
		return aliasesOwnedValue(pass, x.X)
	case *ast.Ident:
		if tv, ok := pass.Info.Types[x]; ok && ownerBearing(tv.Type) {
			return true
		}
	}
	return false
}

// ownerBearing reports whether t (through pointers and aliases) is a struct
// type with a Value field and an Owner field of type *refbuf.Buf.
func ownerBearing(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasValue, hasOwner := false, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "Value":
			hasValue = true
		case "Owner":
			hasOwner = isRefbufPtr(f.Type())
		}
	}
	return hasValue && hasOwner
}

// ownedValueSel reports whether e is a bare `x.Value` selector on an
// owner-bearing x — the depth-0 escape; wrapped in a call it is the
// aliasing summary's to judge.
func ownedValueSel(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Value" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return ownerBearing(tv.Type)
}
