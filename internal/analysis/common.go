package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// staticCallee resolves a call expression to the *types.Func it invokes, or
// nil when the callee is dynamic (a function value, an interface method) or
// a builtin/conversion. Interface method calls resolve to the interface's
// method object; callers that need a body must additionally check the
// receiver is concrete via funcBody.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltinCall reports whether the call invokes the named builtin (append,
// len, delete, ...); name == "" matches any builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	return name == "" || id.Name == name
}

// recvTypeName returns the name of a method's receiver's named type ("" for
// package-level functions and unnamed receivers).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// declOfFunc maps every function/method declared in the package's files to
// its body, keyed by the *types.Func object.
func declOfFunc(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeName renders t's named type for diagnostics ("kvs.Entry", "ChunkRec").
func typeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		if n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}

// isRefbufPtr reports whether t is a pointer to refbuf.Buf (matched by
// name so the golden module's stand-in package qualifies too).
func isRefbufPtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == "Buf" && o.Pkg() != nil && o.Pkg().Name() == "refbuf"
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// blockingStdCall is the one table of standard-library calls that block. op
// names the operation ("time.Sleep", "sync.Mutex.Lock", "net socket Read");
// "" means the call does not block. lock marks the ones that wait for a
// mutex — Lock, RLock and Cond.Wait, which returns holding its own — and
// that is where the two users of the engine's blocking scan differ:
// eventloop flags them (the loop must wait on no one), the MayBlock summary
// leaves them out (lock nesting is the order graph's job, treating every
// lock as blocking would flood callers, and Cond.Wait releases the mutex it
// coordinates with — a documented soundness limit for any *other* lock
// held).
func blockingStdCall(fn *types.Func) (op string, lock bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock":
			return "sync." + recvTypeName(fn) + "." + fn.Name(), true
		case "Wait":
			recv := recvTypeName(fn)
			return "sync." + recv + ".Wait", recv != "WaitGroup"
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", false
		}
	case "net":
		switch fn.Name() {
		case "Read", "Write", "Accept":
			return "net socket " + fn.Name(), false
		}
	}
	return "", false
}

// markSelectComms records the send statements and receive expressions in
// sel's comm clauses: they are part of the select, not independent blocking
// sites (with a default the construct is non-blocking, without one the
// select itself is the single finding).
func markSelectComms(sel *ast.SelectStmt, exempt map[ast.Node]bool) {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch s := cc.Comm.(type) {
		case *ast.SendStmt:
			exempt[s] = true
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				exempt[u] = true
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					exempt[u] = true
				}
			}
		}
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
