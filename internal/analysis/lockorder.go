package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrderAnalyzer audits mutex discipline with the engine's summaries:
//
//   - blocking while holding: a channel send without provable buffer
//     headroom, a channel receive, a default-less select, time.Sleep,
//     socket I/O, WaitGroup.Wait — or a call to a same-package function
//     whose summary says it may do one of those — executed while a mutex is
//     held. One stalled holder stalls every contender; on the event loop
//     that is the gray-failure shape the cluster waivers argue about.
//     sync.Cond.Wait is exempt for its own mutex (it releases it
//     atomically); select-with-default and sends proved buffered by
//     chanProvablyBuffered (local and package-level buffered makes) are
//     non-blocking by construction.
//   - lock-order cycles: an edge A→B is recorded whenever B is acquired
//     (directly or transitively through a summarized callee) while A is
//     held; a cycle in the per-package graph is a deadlock waiting for the
//     right interleaving. Lock identity is "Type.field" — every instance of
//     a type shares the discipline — so self-edges (two instances of one
//     type) are excluded rather than reported: ordering instances of the
//     same type needs a runtime tiebreak the analyzer cannot see.
//
// Branch merging keeps the intersection of held locks (a release on either
// branch counts), so only locks held on every path produce findings.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "no blocking operations while holding a mutex, and the lock-acquisition-order graph must be acyclic",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	lo := &lockOrderChecker{
		pass:     pass,
		eng:      pass.engine(),
		edges:    map[lockID]map[lockID]token.Pos{},
		reported: map[token.Pos]bool{},
	}
	for _, fn := range lo.eng.Order() {
		decl := lo.eng.Decls()[fn]
		if decl.Body == nil {
			continue
		}
		lo.walkRoot(decl.Body)
	}
	lo.reportCycles()
}

type lockOrderChecker struct {
	pass *Pass
	eng  *Engine
	// curBody is the root body being walked, for local channel tracing.
	curBody *ast.BlockStmt
	// edges[a][b] is a sample position where b was acquired while a was held.
	edges    map[lockID]map[lockID]token.Pos
	reported map[token.Pos]bool
}

// heldSet is the ordered list of locks held on the current path.
type heldSet []lockID

func (h heldSet) clone() heldSet { return append(heldSet(nil), h...) }

func (h heldSet) has(id lockID) bool {
	for _, l := range h {
		if l == id {
			return true
		}
	}
	return false
}

func (h heldSet) without(id lockID) heldSet {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == id {
			return append(h[:i:i], h[i+1:]...)
		}
	}
	return h
}

func intersect(a, b heldSet) heldSet {
	var out heldSet
	for _, l := range a {
		if b.has(l) {
			out = append(out, l)
		}
	}
	return out
}

// walkRoot audits one independent execution context (a function body, a
// goroutine body, a function literal) starting with no locks held.
func (lo *lockOrderChecker) walkRoot(body *ast.BlockStmt) {
	prev := lo.curBody
	lo.curBody = body
	lo.stmts(body.List, heldSet{})
	lo.curBody = prev
}

func (lo *lockOrderChecker) stmts(list []ast.Stmt, held heldSet) heldSet {
	for _, s := range list {
		held = lo.stmt(s, held)
	}
	return held
}

func (lo *lockOrderChecker) stmt(s ast.Stmt, held heldSet) heldSet {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return lo.stmts(s.List, held)
	case *ast.ExprStmt:
		return lo.expr(s.X, held, nil)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = lo.expr(rhs, held, nil)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = lo.expr(v, held, nil)
					}
				}
			}
		}
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases at function end: the lock stays held
		// for everything that follows; a deferred Lock (unheard of) and any
		// other deferred call contribute no current-path effects.
		if _, ok := lockRelease(lo.pass, s.Call); ok {
			return held
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lo.walkRoot(fl.Body)
		}
		return held
	case *ast.GoStmt:
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lo.walkRoot(fl.Body)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = lo.stmt(s.Init, held)
		}
		held = lo.expr(s.Cond, held, nil)
		thenHeld := lo.stmts(s.Body.List, held.clone())
		elseHeld := held.clone()
		if s.Else != nil {
			elseHeld = lo.stmt(s.Else, elseHeld)
		}
		return intersect(thenHeld, elseHeld)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = lo.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = lo.expr(s.Tag, held, nil)
		}
		return lo.clauses(clauseBodies(s.Body), held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = lo.stmt(s.Init, held)
		}
		return lo.clauses(clauseBodies(s.Body), held)
	case *ast.SelectStmt:
		// Blocking is judged on the select as a whole; the comm statements
		// themselves are not re-walked (their sends/receives would otherwise
		// double-report what the select finding already covers).
		if len(held) > 0 && !selectHasDefault(s) {
			lo.report(s.Pos(), held, "select without a default case")
		}
		var bodies [][]ast.Stmt
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		return lo.clauses(bodies, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = lo.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = lo.expr(s.Cond, held, nil)
		}
		lo.stmts(s.Body.List, held.clone())
		return held
	case *ast.RangeStmt:
		held = lo.expr(s.X, held, nil)
		lo.stmts(s.Body.List, held.clone())
		return held
	case *ast.SendStmt:
		if len(held) > 0 && !chanProvablyBuffered(lo.pass, s.Chan, lo.curBody) {
			lo.report(s.Pos(), held, "channel send without provable buffer headroom")
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = lo.expr(r, held, nil)
		}
		return held
	case *ast.LabeledStmt:
		return lo.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		return lo.expr(s.X, held, nil)
	}
	return held
}

func (lo *lockOrderChecker) clauses(bodies [][]ast.Stmt, held heldSet) heldSet {
	out := held
	first := true
	for _, b := range bodies {
		bh := lo.stmts(b, held.clone())
		if first {
			out, first = bh, false
		} else {
			out = intersect(out, bh)
		}
	}
	if first {
		return held
	}
	return intersect(out, held) // a clause may not run at all
}

// expr walks an expression, applying lock and blocking effects; selects in
// statement position are handled by stmt, so receives seen here are bare.
func (lo *lockOrderChecker) expr(x ast.Expr, held heldSet, exempt map[any]bool) heldSet {
	switch x := ast.Unparen(x).(type) {
	case nil:
		return held
	case *ast.CallExpr:
		return lo.call(x, held)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			if len(held) > 0 {
				lo.report(x.Pos(), held, "channel receive")
			}
			return held
		}
		return lo.expr(x.X, held, exempt)
	case *ast.BinaryExpr:
		held = lo.expr(x.X, held, exempt)
		return lo.expr(x.Y, held, exempt)
	case *ast.SelectorExpr:
		return lo.expr(x.X, held, exempt)
	case *ast.IndexExpr:
		held = lo.expr(x.X, held, exempt)
		return lo.expr(x.Index, held, exempt)
	case *ast.SliceExpr:
		return lo.expr(x.X, held, exempt)
	case *ast.StarExpr:
		return lo.expr(x.X, held, exempt)
	case *ast.TypeAssertExpr:
		return lo.expr(x.X, held, exempt)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				held = lo.expr(kv.Value, held, exempt)
			} else {
				held = lo.expr(el, held, exempt)
			}
		}
		return held
	case *ast.FuncLit:
		lo.walkRoot(x.Body)
		return held
	}
	return held
}

func (lo *lockOrderChecker) call(call *ast.CallExpr, held heldSet) heldSet {
	for _, arg := range call.Args {
		held = lo.expr(arg, held, nil)
	}
	if id, ok := lockAcquisition(lo.pass, call); ok {
		lo.addEdges(held, id, call.Pos())
		return append(held, id)
	}
	if id, ok := lockRelease(lo.pass, call); ok {
		return held.without(id)
	}
	fn := staticCallee(lo.pass.Info, call)
	if fn == nil {
		return held
	}
	if len(held) > 0 {
		if op, lock := blockingStdCall(fn); op != "" && !lock {
			lo.report(call.Pos(), held, op)
			return held
		}
	}
	if sum := lo.eng.SummaryOf(fn); sum != nil {
		if len(held) > 0 && sum.MayBlock {
			lo.report(call.Pos(), held, fn.Name()+" may block: "+sum.BlockNote)
		}
		for _, acq := range sum.Acquires {
			lo.addEdges(held, acq, call.Pos())
		}
	}
	return held
}

func (lo *lockOrderChecker) addEdges(held heldSet, acquired lockID, pos token.Pos) {
	for _, h := range held {
		if h == acquired {
			continue // same type identity: instance ordering is out of scope
		}
		if lo.edges[h] == nil {
			lo.edges[h] = map[lockID]token.Pos{}
		}
		if _, ok := lo.edges[h][acquired]; !ok {
			lo.edges[h][acquired] = pos
		}
	}
}

func (lo *lockOrderChecker) report(pos token.Pos, held heldSet, what string) {
	if lo.reported[pos] {
		return
	}
	lo.reported[pos] = true
	names := make([]string, len(held))
	for i, h := range held {
		names[i] = string(h)
	}
	lo.pass.Reportf(pos, "%s while holding %s: a stalled holder stalls every contender (move the blocking operation outside the critical section)",
		what, strings.Join(names, ", "))
}

// reportCycles runs a DFS over the acquisition-order graph and reports each
// cycle once, at the recorded sample position of its lexically-first edge.
func (lo *lockOrderChecker) reportCycles() {
	nodes := make([]lockID, 0, len(lo.edges))
	for a := range lo.edges {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[lockID]int{}
	var stack []lockID

	var visit func(n lockID)
	visit = func(n lockID) {
		color[n] = gray
		stack = append(stack, n)
		succs := make([]lockID, 0, len(lo.edges[n]))
		for b := range lo.edges[n] {
			succs = append(succs, b)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, b := range succs {
			switch color[b] {
			case white:
				visit(b)
			case gray:
				// Found a cycle: b ... n -> b.
				start := 0
				for i, s := range stack {
					if s == b {
						start = i
						break
					}
				}
				cycle := append(append([]lockID{}, stack[start:]...), b)
				lo.reportCycle(cycle)
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			visit(n)
		}
	}
}

func (lo *lockOrderChecker) reportCycle(cycle []lockID) {
	// Report at the sample position of the first edge in the cycle.
	pos := lo.edges[cycle[0]][cycle[1]]
	if lo.reported[pos] {
		return
	}
	lo.reported[pos] = true
	parts := make([]string, len(cycle))
	for i, l := range cycle {
		parts[i] = string(l)
	}
	lo.pass.Reportf(pos,
		"lock-acquisition-order cycle: %s — two goroutines taking these locks in different orders deadlock; pick one global order",
		strings.Join(parts, " → "))
}
