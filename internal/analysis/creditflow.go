package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CreditFlowAnalyzer mechanizes the PR 2 credit-discipline post-mortem for
// the transport layers (packages named "wings" and "transport"): a send
// window only survives if every debited credit is spent exactly once —
// consumed by a successful transmission or refunded on the path that
// failed. Both historical bugs are covered:
//
//   - leak-on-error: a function debits (`credits -= cost`) and then returns
//     a non-nil error without a refund (`credits += n`, a
//     CreditReturn/RepayCredits/repayCredits call, or a same-package helper
//     whose engine summary refunds) anywhere after the debit on that path.
//     Each leak shrinks the window permanently; enough of them wedge the
//     link.
//   - double-repay: two refunds after a single debit on one path, the
//     inverse failure (the window grows past the receiver's buffer
//     reservation, which is flow-control in name only).
//
// The windows it polices are the ones left: Link.Send's and the client
// session's (Link.SendClientReq); the replica mesh runs without one.
//
// Path merging is lenient by design: a refund on any incoming branch
// satisfies the error path (guard correlation such as wings.Send's
// `if cost > 0` refund mirror is beyond the checker), so the findings that
// remain are the unconditional misses.
var CreditFlowAnalyzer = &Analyzer{
	Name: "creditflow",
	Doc:  "transport error paths must refund or consume debited flow-control credits",
	Run:  runCreditFlow,
}

func runCreditFlow(pass *Pass) {
	if pass.Pkg.Name() != "wings" && pass.Pkg.Name() != "transport" {
		return
	}
	eng := pass.engine()
	for _, fn := range eng.Order() {
		decl := eng.Decls()[fn]
		if decl.Body == nil {
			continue
		}
		checkCreditPaths(pass, eng, fn, decl)
	}
}

// --- debit/refund path check ----------------------------------------------

type creditState struct {
	debited bool
	refunds int
	dead    bool
}

type creditWalker struct {
	pass *Pass
	eng  *Engine
}

func checkCreditPaths(pass *Pass, eng *Engine, fn *types.Func, decl *ast.FuncDecl) {
	sig := fn.Type().(*types.Signature)
	nres := sig.Results().Len()
	if nres == 0 || !isErrorType(sig.Results().At(nres-1).Type()) {
		return // no error result: no error path to audit
	}
	w := &creditWalker{pass: pass, eng: eng}
	w.stmts(decl.Body.List, &creditState{})
}

func isErrorType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func (w *creditWalker) stmts(list []ast.Stmt, st *creditState) {
	for _, s := range list {
		if st.dead {
			return
		}
		w.stmt(s, st)
	}
}

func (w *creditWalker) stmt(s ast.Stmt, st *creditState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.AssignStmt:
		w.events(s, st)
	case *ast.ExprStmt:
		w.events(s, st)
	case *ast.DeferStmt:
		w.events(s, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.events(s.Cond, st)
		thenSt, elseSt := *st, *st
		w.stmt(s.Body, &thenSt)
		if s.Else != nil {
			w.stmt(s.Else, &elseSt)
		}
		w.merge(st, &thenSt, &elseSt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.clauses(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		body := *st
		w.stmt(s.Body, &body)
		if !body.dead {
			st.debited = st.debited || body.debited
			st.refunds = maxInt(st.refunds, body.refunds)
		}
	case *ast.RangeStmt:
		body := *st
		w.stmt(s.Body, &body)
		if !body.dead {
			st.debited = st.debited || body.debited
			st.refunds = maxInt(st.refunds, body.refunds)
		}
	case *ast.ReturnStmt:
		w.ret(s, st)
		st.dead = true
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	}
}

func (w *creditWalker) clauses(s ast.Stmt, st *creditState) {
	var bodies [][]ast.Stmt
	hasDefault := false
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
		hasDefault = true // each comm is its own path; no fall-through state
	}
	for _, cl := range body.List {
		switch cc := cl.(type) {
		case *ast.CaseClause:
			bodies = append(bodies, cc.Body)
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			bodies = append(bodies, cc.Body)
		}
	}
	outs := make([]*creditState, 0, len(bodies)+1)
	for _, b := range bodies {
		bs := *st
		w.stmts(b, &bs)
		if !bs.dead {
			outs = append(outs, &bs)
		}
	}
	if !hasDefault {
		fall := *st
		outs = append(outs, &fall)
	}
	w.mergeAll(st, outs)
}

func (w *creditWalker) merge(st *creditState, outs ...*creditState) {
	live := outs[:0]
	for _, o := range outs {
		if !o.dead {
			live = append(live, o)
		}
	}
	w.mergeAll(st, live)
}

func (w *creditWalker) mergeAll(st *creditState, outs []*creditState) {
	if len(outs) == 0 {
		st.dead = true
		return
	}
	st.debited, st.refunds = outs[0].debited, outs[0].refunds
	for _, o := range outs[1:] {
		st.debited = st.debited || o.debited
		st.refunds = maxInt(st.refunds, o.refunds)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// events scans one non-branching node for debit and refund events.
func (w *creditWalker) events(n ast.Node, st *creditState) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && isCreditsField(w.pass.Info, n.Lhs[0]) {
				switch n.Tok {
				case token.SUB_ASSIGN:
					st.debited = true
					st.refunds = 0
				case token.ADD_ASSIGN:
					w.refund(n.Pos(), st)
				}
			}
		case *ast.CallExpr:
			if w.isRefundCall(n) {
				w.refund(n.Pos(), st)
				return false
			}
		}
		return true
	})
}

func (w *creditWalker) isRefundCall(call *ast.CallExpr) bool {
	switch calleeSelName(call) {
	case "CreditReturn", "RepayCredits", "repayCredits":
		return true
	}
	if fn := staticCallee(w.pass.Info, call); fn != nil {
		if sum := w.eng.SummaryOf(fn); sum != nil && sum.Refunds {
			return true
		}
	}
	return false
}

func (w *creditWalker) refund(pos token.Pos, st *creditState) {
	st.refunds++
	if st.debited && st.refunds > 1 {
		w.pass.Reportf(pos,
			"credit refunded more than once after a single debit on this path: the send window grows past the receiver's buffer reservation (the PR 2 double-repay shape)")
	}
}

func (w *creditWalker) ret(s *ast.ReturnStmt, st *creditState) {
	if len(s.Results) == 0 {
		return // naked return: named results are beyond the checker
	}
	for _, res := range s.Results {
		w.events(res, st)
	}
	last := ast.Unparen(s.Results[len(s.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return // success: the transmission consumes the credit
	}
	if st.debited && st.refunds == 0 {
		w.pass.Reportf(s.Pos(),
			"error path returns without refunding the debited credit: the send window shrinks permanently (refund with credits += cost or a CreditReturn/RepayCredits call before returning)")
	}
}
