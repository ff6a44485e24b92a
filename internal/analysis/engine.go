package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural dataflow engine the analyzers reftrack,
// lockorder and eventloop build on. A per-file lexical check cannot see a
// leak, a blocking call or a non-cloning helper across a call boundary; the
// engine closes that gap for one package at a time:
//
//   - a call graph over the package's declared functions (staticCallee
//     resolution; dynamic calls — function values, interface methods — stay
//     unresolved and are modeled by an explicit, *reported* assumption),
//     recorded as the call edges of each function's blocking scan;
//   - a per-function Summary of resource effects: which *refbuf.Buf
//     parameters the function consumes, which results carry a reference the
//     caller inherits, which results alias a parameter's bytes without a
//     clone, whether it may block, and which locks it acquires;
//   - fixpoint iteration so callers inherit callee effects through
//     recursion and mutual recursion. Must-properties (ConsumesParam) start
//     optimistic and refine downward; may-properties (MayBlock,
//     ResultAcquired, aliasing, lock sets) start empty and grow. Each
//     domain's transfer function is monotone in its own direction, so the
//     iteration terminates.
//
// Soundness limits, by design (documented in internal/README.md): the
// engine is package-local — cross-package callees have no body, so their
// effects fall back to conservative defaults (a named allowlist for the
// refbuf consuming entry points, "consumes nothing" otherwise, and the
// analyzers report that assumption rather than silently passing); dynamic
// dispatch is likewise "consumes nothing, may do anything blocking-wise is
// NOT assumed"; goroutine bodies and function literals run off the analyzed
// control flow and are walked as independent roots, not as caller effects.

// Summary is one function's resource-effect summary.
//
// Function literals are not part of it — not of the blocking scan behind
// MayBlock and eventloop, nor of Acquires or the alias summary. A literal is
// a value whose body runs when something calls it: later, elsewhere, through
// a dynamic call the package-local graph cannot follow. So a callback stored
// for later (cluster's post-lock `after` queue) is no false "may block", and
// a blocking literal invoked on the spot or deferred is a documented blind
// spot.
type Summary struct {
	fn   *types.Func
	decl *ast.FuncDecl

	// ConsumesParam[i] is true when every terminating path through the
	// function spends exactly the one reference the caller transferred with
	// *refbuf.Buf parameter i (Release, adoption into an Owner field,
	// transfer to a consuming callee, or return to the caller).
	ConsumesParam []bool
	// ResultAcquired[i] is true when result i may carry a live frame-buffer
	// reference the caller inherits (a retained buffer returned).
	ResultAcquired []bool
	// ResultAliasesParam[i] is the parameter index whose bytes result i may
	// alias without an intervening clone, or -1. This is the summary that
	// catches the "clone hidden behind a helper that doesn't clone" shape a
	// lexical owner-escape check cannot see.
	ResultAliasesParam []int
	// MayBlock is true when some statement in the function (or a summarized
	// callee) can block: channel operations without provable buffer
	// headroom, default-less selects, time.Sleep, socket I/O,
	// WaitGroup.Wait. It is derived from the function's blocking scan
	// (scanBlocking), the same scan eventloop reports from, minus the mutex
	// waits.
	MayBlock bool
	// BlockNote describes the first blocking operation found, for
	// diagnostics ("time.Sleep", "channel receive", ...).
	BlockNote string
	// Acquires is the set of locks the function (transitively) acquires,
	// used to build the lock-acquisition-order graph across calls.
	Acquires []lockID
}

func (s *Summary) equal(o *Summary) bool {
	if s.MayBlock != o.MayBlock || s.BlockNote != o.BlockNote {
		return false
	}
	if !eqBools(s.ConsumesParam, o.ConsumesParam) || !eqBools(s.ResultAcquired, o.ResultAcquired) {
		return false
	}
	if len(s.ResultAliasesParam) != len(o.ResultAliasesParam) {
		return false
	}
	for i := range s.ResultAliasesParam {
		if s.ResultAliasesParam[i] != o.ResultAliasesParam[i] {
			return false
		}
	}
	if len(s.Acquires) != len(o.Acquires) {
		return false
	}
	for i := range s.Acquires {
		if s.Acquires[i] != o.Acquires[i] {
			return false
		}
	}
	return true
}

func eqBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lockID names one lock for the acquisition-order graph: the named type
// that carries it plus the field name ("Link.mu"), or the variable name for
// package-level and local locks.
type lockID string

// Engine holds the call graph and fixpoint summaries for one package.
type Engine struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*Summary
	order []*types.Func
	// sites is each function's blocking scan: the call graph's edges and the
	// operations that can block, computed once (it needs no summaries).
	sites map[*types.Func][]blockSite
}

// NewEngine builds the call graph for pass's package and iterates the
// summaries to fixpoint.
func NewEngine(pass *Pass) *Engine {
	e := &Engine{
		pass:  pass,
		decls: declOfFunc(pass),
		sums:  map[*types.Func]*Summary{},
		sites: map[*types.Func][]blockSite{},
	}
	for fn, decl := range e.decls {
		e.order = append(e.order, fn)
		if decl.Body != nil {
			e.sites[fn] = e.scanBlocking(decl.Body)
		}
	}
	sort.Slice(e.order, func(i, j int) bool {
		return e.decls[e.order[i]].Pos() < e.decls[e.order[j]].Pos()
	})
	// Optimistic initialization for the must-property (consumption through
	// recursion stays provable: the recursive call is assumed consuming
	// until an intra pass disproves it); empty for the may-properties.
	for _, fn := range e.order {
		e.sums[fn] = e.initialSummary(fn)
	}
	max := 2*len(e.order) + 4
	for iter := 0; iter < max; iter++ {
		changed := false
		for _, fn := range e.order {
			ns := e.summarize(fn)
			if !ns.equal(e.sums[fn]) {
				e.sums[fn] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return e
}

// Decls exposes the package's function declarations, keyed by object.
func (e *Engine) Decls() map[*types.Func]*ast.FuncDecl { return e.decls }

// Order returns the declared functions in source order (deterministic
// iteration for analyzers).
func (e *Engine) Order() []*types.Func { return e.order }

// SummaryOf returns fn's fixpoint summary, or nil for functions without a
// body in this package (the conservative-fallback case the analyzers must
// report, not silently absorb).
func (e *Engine) SummaryOf(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return e.sums[fn]
}

func (e *Engine) initialSummary(fn *types.Func) *Summary {
	sig := fn.Type().(*types.Signature)
	s := &Summary{fn: fn, decl: e.decls[fn]}
	s.ConsumesParam = make([]bool, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		s.ConsumesParam[i] = isRefbufPtr(sig.Params().At(i).Type())
	}
	s.ResultAcquired = make([]bool, sig.Results().Len())
	s.ResultAliasesParam = make([]int, sig.Results().Len())
	for i := range s.ResultAliasesParam {
		s.ResultAliasesParam[i] = -1
	}
	return s
}

// summarize recomputes fn's summary from its body and the current summary
// map (one fixpoint round).
func (e *Engine) summarize(fn *types.Func) *Summary {
	decl := e.decls[fn]
	s := e.initialSummary(fn)
	for i := range s.ConsumesParam {
		s.ConsumesParam[i] = false
	}
	if decl.Body == nil {
		return s
	}
	e.refSummary(fn, decl, s)
	e.aliasSummary(fn, decl, s)
	s.MayBlock, s.BlockNote = e.mayBlock(fn)
	s.Acquires = e.acquiresIn(decl.Body)
	return s
}

// refSummary computes ConsumesParam and ResultAcquired by running the
// reference interpreter with the *refbuf.Buf parameters seeded as tracked
// (one transferred reference each).
func (e *Engine) refSummary(fn *types.Func, decl *ast.FuncDecl, s *Summary) {
	sig := fn.Type().(*types.Signature)
	in := newRefInterp(e, nil)
	paramKey := map[int]refKey{}
	if decl.Type.Params != nil {
		i := 0
		for _, fld := range decl.Type.Params.List {
			for _, name := range fld.Names {
				if i < sig.Params().Len() && isRefbufPtr(sig.Params().At(i).Type()) {
					if obj := e.pass.Info.Defs[name]; obj != nil {
						k := refKey{root: obj}
						paramKey[i] = k
						in.seed(k, name.Pos())
					}
				}
				i++
			}
			if len(fld.Names) == 0 {
				i++
			}
		}
	}
	st := in.newState()
	in.block(decl.Body, st)
	if !st.dead {
		in.recordExit(st, nil)
	}
	for i, k := range paramKey {
		consumed := len(in.exits) > 0
		for _, ex := range in.exits {
			info := ex.state.refs[k]
			if info == nil || info.unknown || info.obl != 0 {
				consumed = false
			}
		}
		s.ConsumesParam[i] = consumed
	}
	for _, ex := range in.exits {
		for ri, key := range ex.returnedKeys {
			if key == (refKey{}) || ri >= len(s.ResultAcquired) {
				continue
			}
			if info := ex.state.refs[key]; info != nil && !info.unknown && info.returned {
				s.ResultAcquired[ri] = true
			}
		}
		for _, ri := range ex.acquiredResults {
			if ri < len(s.ResultAcquired) {
				s.ResultAcquired[ri] = true
			}
		}
	}
}

// aliasSummary computes ResultAliasesParam: whether each return expression
// may alias a parameter's bytes (the parameter itself, one of its fields,
// or a slice of either) with no clone in between. A call to a same-package
// function inherits that callee's aliasing summary; cross-package calls are
// assumed to clone (the point of the summary is that *same-package* helpers
// get no such free pass).
func (e *Engine) aliasSummary(fn *types.Func, decl *ast.FuncDecl, s *Summary) {
	sig := fn.Type().(*types.Signature)
	paramIdx := map[types.Object]int{}
	if decl.Type.Params != nil {
		i := 0
		for _, fld := range decl.Type.Params.List {
			for _, name := range fld.Names {
				if obj := e.pass.Info.Defs[name]; obj != nil {
					paramIdx[obj] = i
				}
				i++
			}
			if len(fld.Names) == 0 {
				i++
			}
		}
	}
	// Propagate through simple local assignments: v := <aliasing expr>.
	localAlias := map[types.Object]int{}
	var exprAlias func(x ast.Expr) int
	exprAlias = func(x ast.Expr) int {
		switch x := ast.Unparen(x).(type) {
		case *ast.Ident:
			if obj := e.pass.Info.Uses[x]; obj != nil {
				if i, ok := paramIdx[obj]; ok {
					return i
				}
				if i, ok := localAlias[obj]; ok {
					return i
				}
			}
		case *ast.SelectorExpr:
			return exprAlias(x.X)
		case *ast.IndexExpr:
			return exprAlias(x.X)
		case *ast.SliceExpr:
			return exprAlias(x.X)
		case *ast.CallExpr:
			if callee := staticCallee(e.pass.Info, x); callee != nil {
				if cs, ok := e.sums[callee]; ok {
					for ri, pi := range cs.ResultAliasesParam {
						if pi >= 0 && ri == 0 && pi < len(x.Args) {
							return exprAlias(x.Args[pi])
						}
					}
				}
			}
		}
		return -1
	}
	objAt := map[int]types.Object{}
	for obj, i := range paramIdx {
		objAt[i] = obj
	}
	// The walk is flow-ordered and tracks, per block, the roots whose Owner
	// field is proven nil: after `if e.Owner != nil { return ... }`, a
	// `return e.Value` in the same block aliases only UNPOOLED bytes — the
	// conditional-clone idiom (core.safeVal) is summarized as non-aliasing.
	var walkStmts func(list []ast.Stmt, ownerNil map[types.Object]bool)
	var walkStmt func(st ast.Stmt, ownerNil map[types.Object]bool)
	walkStmt = func(st ast.Stmt, ownerNil map[types.Object]bool) {
		switch st := st.(type) {
		case *ast.BlockStmt:
			walkStmts(st.List, ownerNil)
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				obj := e.pass.Info.Defs[id]
				if obj == nil {
					obj = e.pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if ai := exprAlias(st.Rhs[i]); ai >= 0 && isByteSliceLike(obj.Type()) {
					localAlias[obj] = ai
				} else {
					delete(localAlias, obj)
				}
			}
		case *ast.ReturnStmt:
			for ri, res := range st.Results {
				if ri >= sig.Results().Len() || !isByteSliceLike(sig.Results().At(ri).Type()) {
					continue
				}
				ai := exprAlias(res)
				if ai < 0 || ri >= len(s.ResultAliasesParam) {
					continue
				}
				if ownerNil[objAt[ai]] {
					continue // guard proved the bytes are not pooled
				}
				s.ResultAliasesParam[ri] = ai
			}
		case *ast.IfStmt:
			if st.Init != nil {
				walkStmt(st.Init, ownerNil)
			}
			walkStmts(st.Body.List, ownerNil)
			if st.Else != nil {
				walkStmt(st.Else, ownerNil)
			}
			if root := ownerNotNilGuard(e.pass, st.Cond); root != nil && endsInReturn(st.Body) {
				ownerNil[root] = true // for the rest of THIS block only
			}
		case *ast.ForStmt:
			walkStmts(st.Body.List, ownerNil)
		case *ast.RangeStmt:
			walkStmts(st.Body.List, ownerNil)
		case *ast.SwitchStmt:
			for _, b := range clauseBodies(st.Body) {
				walkStmts(b, ownerNil)
			}
		case *ast.TypeSwitchStmt:
			for _, b := range clauseBodies(st.Body) {
				walkStmts(b, ownerNil)
			}
		case *ast.SelectStmt:
			for _, b := range commBodies(st.Body) {
				walkStmts(b, ownerNil)
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, ownerNil)
		}
		// Function literals are separate scopes: their returns are not this
		// function's returns, and the walker never descends into expressions.
	}
	walkStmts = func(list []ast.Stmt, ownerNil map[types.Object]bool) {
		// Copy so guard facts established inside a nested block don't leak
		// back out to a region the guard does not dominate.
		inner := make(map[types.Object]bool, len(ownerNil))
		for k, v := range ownerNil {
			inner[k] = v
		}
		for _, st := range list {
			walkStmt(st, inner)
		}
	}
	walkStmts(decl.Body.List, map[types.Object]bool{})
}

// ownerNotNilGuard matches a condition of the form `x.Owner != nil` (any
// *refbuf.Buf field selected from an identifier), returning the root object.
func ownerNotNilGuard(pass *Pass, cond ast.Expr) types.Object {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return nil
	}
	sel, nilSide := be.X, be.Y
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && id.Name == "nil" {
		sel, nilSide = be.Y, be.X
	}
	if id, ok := ast.Unparen(nilSide).(*ast.Ident); !ok || id.Name != "nil" {
		return nil
	}
	se, ok := ast.Unparen(sel).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.Info.Selections[se]
	if !ok || s.Kind() != types.FieldVal || !isRefbufPtr(s.Obj().Type()) {
		return nil
	}
	root, ok := ast.Unparen(se.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Uses[root]
}

// endsInReturn reports whether the block's last statement is a return (the
// terminating shape the owner-nil guard requires).
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// isByteSliceLike reports whether t's core type is a byte slice (covers
// proto.Value and friends).
func isByteSliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// The notes of the three channel sites; blockingStdCall names the calls.
const (
	noteSelect = "select without a default case"
	noteSend   = "channel send (no provable buffer headroom)"
	noteRecv   = "channel receive"
)

// blockSite is one entry of a function's blocking scan: an operation that
// can block (note says which; lock marks a mutex wait — Lock, RLock,
// Cond.Wait), or, with note empty, a call edge to callee, a same-package
// function with a body. callee is also set on a blocking std call.
type blockSite struct {
	pos    token.Pos
	note   string
	lock   bool
	callee *types.Func
}

// scanBlocking is the one classifier of blocking operations: it lists, in
// source order, every select without a default, channel send without
// provable headroom, channel receive outside a select, blocking std call
// (blockingStdCall) and same-package call edge in body. Goroutine bodies
// and function literals are skipped (the policy the Summary doc records).
func (e *Engine) scanBlocking(body *ast.BlockStmt) []blockSite {
	var sites []blockSite
	exempt := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			markSelectComms(n, exempt)
			if !selectHasDefault(n) {
				sites = append(sites, blockSite{pos: n.Pos(), note: noteSelect})
			}
		case *ast.SendStmt:
			if !exempt[n] && !chanProvablyBuffered(e.pass, n.Chan, body) {
				sites = append(sites, blockSite{pos: n.Pos(), note: noteSend})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !exempt[n] {
				sites = append(sites, blockSite{pos: n.Pos(), note: noteRecv})
			}
		case *ast.CallExpr:
			fn := staticCallee(e.pass.Info, n)
			if fn == nil {
				break
			}
			if op, lock := blockingStdCall(fn); op != "" {
				sites = append(sites, blockSite{pos: n.Pos(), note: op, lock: lock, callee: fn})
			} else if _, ok := e.decls[fn]; ok {
				sites = append(sites, blockSite{pos: n.Pos(), callee: fn})
			}
		}
		return true
	})
	return sites
}

// mayBlock derives fn's MayBlock summary from its scan: the first site in
// source order that is a blocking operation other than a mutex wait, or a
// call to a callee whose current summary may block.
func (e *Engine) mayBlock(fn *types.Func) (bool, string) {
	for _, s := range e.sites[fn] {
		switch {
		case s.note == "":
			if cs := e.sums[s.callee]; cs.MayBlock {
				return true, s.callee.Name() + ": " + cs.BlockNote
			}
		case !s.lock:
			return true, s.note
		}
	}
	return false, ""
}

// acquiresIn collects the locks body acquires, directly or through
// same-package callees (transitive via the fixpoint). Goroutine bodies and
// function literals are excluded — they acquire on their own goroutine.
func (e *Engine) acquiresIn(body *ast.BlockStmt) []lockID {
	set := map[lockID]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, ok := lockAcquisition(e.pass, n); ok {
				set[id] = true
			} else if fn := staticCallee(e.pass.Info, n); fn != nil {
				if cs, ok := e.sums[fn]; ok {
					for _, l := range cs.Acquires {
						set[l] = true
					}
				}
			}
		}
		return true
	})
	out := make([]lockID, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lockAcquisition reports whether call is a sync.Mutex/RWMutex Lock or
// RLock, returning the lock's identity.
func lockAcquisition(pass *Pass, call *ast.CallExpr) (lockID, bool) {
	return mutexCall(pass, call, "Lock", "RLock")
}

// lockRelease is the Unlock/RUnlock counterpart of lockAcquisition.
func lockRelease(pass *Pass, call *ast.CallExpr) (lockID, bool) {
	return mutexCall(pass, call, "Unlock", "RUnlock")
}

// mutexCall reports whether call invokes method name or rname of a
// sync.Mutex or sync.RWMutex, returning the lock's identity.
func mutexCall(pass *Pass, call *ast.CallExpr, name, rname string) (lockID, bool) {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	if fn.Name() != name && fn.Name() != rname {
		return "", false
	}
	rt := recvTypeName(fn)
	if rt != "Mutex" && rt != "RWMutex" {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return lockIdent(pass, sel.X), true
}

// lockIdent names the lock denoted by expr: "Type.field" for a mutex field
// of a named struct (the stable identity an order graph needs — every
// instance of the type shares the discipline), or the root identifier's
// name otherwise.
func lockIdent(pass *Pass, expr ast.Expr) lockID {
	expr = ast.Unparen(expr)
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if tv, ok := pass.Info.Types[sel.X]; ok {
			if n := namedOf(tv.Type); n != nil {
				return lockID(n.Obj().Name() + "." + sel.Sel.Name)
			}
		}
		return lockID(sel.Sel.Name)
	}
	if id, ok := expr.(*ast.Ident); ok {
		return lockID(id.Name)
	}
	return lockID("<lock>")
}
