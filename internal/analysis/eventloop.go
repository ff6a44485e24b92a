package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EventLoopAnalyzer enforces the event-loop contract of the live runtime:
// code reachable from a protocol state machine's message handlers — and from
// the cluster callbacks those handlers invoke on the event-loop goroutine —
// must never block. One stalled handler stalls every key the shard owns
// (internal/cluster's architecture comment; SubmitAsync's callback contract).
//
// Roots:
//   - in a package named "core": methods Deliver, Submit, Tick and
//     OnViewChange on the Hermes state machine (the on* handlers are reached
//     transitively);
//   - in a package named "cluster": Send/Complete methods on types whose
//     name contains "Env" or "Transport" — the proto.Env and Transport
//     implementations the state machine calls back into from handler code —
//     and their handOff method, which the event loop calls itself to end a
//     burst of turns (where Send only stages, handOff is the egress).
//
// Blocking operations flagged on any statically reachable same-package path:
// sync mutex/RWMutex Lock and RLock, WaitGroup/Cond Wait, time.Sleep,
// net socket Read/Write/Accept, channel sends on channels without provable
// buffer headroom (chanProvablyBuffered: local buffered makes and buffered
// package vars qualify), channel receives, and selects without a default.
// Goroutine bodies (`go ...`) are exempt — launching is the sanctioned way
// to move blocking work off the loop.
var EventLoopAnalyzer = &Analyzer{
	Name: "eventloop",
	Doc:  "flags blocking operations reachable from protocol handlers and event-loop callbacks",
	Run:  runEventLoop,
}

func runEventLoop(pass *Pass) {
	if pass.Pkg.Name() != "core" && pass.Pkg.Name() != "cluster" {
		return
	}
	c := &eventLoopChecker{
		pass:     pass,
		decls:    declOfFunc(pass),
		visited:  map[*types.Func]bool{},
		reported: map[token.Pos]bool{},
	}
	for fn, decl := range c.decls {
		if c.isRoot(fn) {
			c.visit(fn, decl, nil)
		}
	}
}

type eventLoopChecker struct {
	pass     *Pass
	decls    map[*types.Func]*ast.FuncDecl
	visited  map[*types.Func]bool
	reported map[token.Pos]bool
}

var coreHandlerNames = map[string]bool{
	"Deliver": true, "Submit": true, "Tick": true, "OnViewChange": true,
}

var clusterCallbackNames = map[string]bool{
	"Send": true, "Complete": true, "handOff": true,
}

func (c *eventLoopChecker) isRoot(fn *types.Func) bool {
	recv := recvTypeName(fn)
	if recv == "" {
		return false
	}
	switch c.pass.Pkg.Name() {
	case "core":
		return recv == "Hermes" && coreHandlerNames[fn.Name()]
	case "cluster":
		if !clusterCallbackNames[fn.Name()] {
			return false
		}
		return strings.Contains(recv, "Env") || strings.Contains(recv, "Transport")
	}
	return false
}

func (c *eventLoopChecker) visit(fn *types.Func, decl *ast.FuncDecl, chain []string) {
	if c.visited[fn] || len(chain) > 20 {
		return
	}
	c.visited[fn] = true
	chain = append(chain, fn.Name())
	if decl.Body != nil {
		c.walk(decl.Body, chain, map[ast.Node]bool{}, decl.Body)
	}
}

// walk inspects one function body. exemptComm holds the send/receive
// expressions that belong to a select-with-default (non-blocking by
// construction). funcBody is the enclosing body used to trace channel
// buffering.
func (c *eventLoopChecker) walk(n ast.Node, chain []string, exemptComm map[ast.Node]bool, funcBody *ast.BlockStmt) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The launched goroutine does not run on the event loop.
			return false
		case *ast.SelectStmt:
			markSelectComms(n, exemptComm)
			if !selectHasDefault(n) {
				c.report(n.Pos(), chain, "select without a default case blocks the event loop")
			}
			return true
		case *ast.SendStmt:
			if !exemptComm[n] && !chanProvablyBuffered(c.pass, n.Chan, funcBody) {
				c.report(n.Pos(), chain, "channel send may block the event loop (channel not provably buffered here)")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !exemptComm[n] {
				c.report(n.Pos(), chain, "channel receive may block the event loop")
			}
		case *ast.CallExpr:
			c.checkCall(n, chain, funcBody)
		}
		return true
	})
}

func (c *eventLoopChecker) checkCall(call *ast.CallExpr, chain []string, funcBody *ast.BlockStmt) {
	if isConversion(c.pass.Info, call) || isBuiltinCall(c.pass.Info, call, "") {
		return
	}
	// Function literals invoked (or evaluated as arguments) here run on the
	// event loop right now; ast.Inspect already descends into them.
	fn := staticCallee(c.pass.Info, call)
	if fn == nil {
		return
	}
	if op, lock := blockingStdCall(fn); op != "" {
		verb := " blocks the event loop"
		if lock && fn.Name() != "Wait" {
			verb = " may block the event loop" // an uncontended Lock returns at once
		}
		c.report(call.Pos(), chain, op+verb)
		return
	}
	// Descend into same-package callees with bodies.
	if decl, ok := c.decls[fn]; ok {
		c.visit(fn, decl, chain)
	}
}

func (c *eventLoopChecker) report(pos token.Pos, chain []string, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "%s (event-loop path: %s)", msg, strings.Join(chain, " → "))
}
