package analysis

import (
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
//     name contains "Env" or "Transport" — the Transport implementations
//     and the engine's clock and completion sink, which handler code calls
//     back into — and handOff, which the event loop calls itself to end a
//     burst of turns;
//   - in a package named "shardhost": Send and Flush on Egress, the stager
//     every shard engine has as its proto.Env. Send stages or puts a message
//     on the wire from handler code, and Flush is the egress handOff
//     performs. The stager lives outside cluster, and the analyzer follows
//     same-package edges only, so it is rooted where it is defined.
//
// The analyzer is a client of the Engine: it follows the engine's
// same-package call edges from the roots and reports every site of the
// engine's blocking scan (scanBlocking) on a reachable function — including
// the mutex waits the MayBlock summary leaves out, since the loop must wait
// on no one. Goroutine bodies (`go ...`) are exempt — launching is the
// sanctioned way to move blocking work off the loop — and so are function
// literals, by the engine's policy (see Summary).
var EventLoopAnalyzer = &Analyzer{
	Name: "eventloop",
	Doc:  "flags blocking operations reachable from protocol handlers and event-loop callbacks",
	Run:  runEventLoop,
}

func runEventLoop(pass *Pass) {
	switch pass.Pkg.Name() {
	case "core", "cluster", "shardhost":
	default:
		return
	}
	eng := pass.engine()
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func, chain []string)
	visit = func(fn *types.Func, chain []string) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		chain = append(chain, fn.Name())
		for _, s := range eng.sites[fn] {
			if s.note == "" {
				visit(s.callee, chain)
				continue
			}
			pass.Reportf(s.pos, "%s (event-loop path: %s)", eventLoopMessage(s), strings.Join(chain, " → "))
		}
	}
	for _, fn := range eng.Order() {
		if isEventLoopRoot(pass.Pkg.Name(), fn) {
			visit(fn, nil)
		}
	}
}

var coreHandlerNames = map[string]bool{
	"Deliver": true, "Submit": true, "Tick": true, "OnViewChange": true,
}

func isEventLoopRoot(pkg string, fn *types.Func) bool {
	recv, name := recvTypeName(fn), fn.Name()
	switch pkg {
	case "core":
		return recv == "Hermes" && coreHandlerNames[name]
	case "cluster":
		return name == "handOff" ||
			(name == "Send" || name == "Complete") && (strings.Contains(recv, "Env") || strings.Contains(recv, "Transport"))
	case "shardhost":
		return recv == "Egress" && (name == "Send" || name == "Flush")
	}
	return false
}

// eventLoopMessage phrases a blocking site for the event loop.
func eventLoopMessage(s blockSite) string {
	switch s.note {
	case noteSelect:
		return "select without a default case blocks the event loop"
	case noteSend:
		return "channel send may block the event loop (channel not provably buffered here)"
	case noteRecv:
		return "channel receive may block the event loop"
	}
	if s.lock && s.callee.Name() != "Wait" {
		return s.note + " may block the event loop" // an uncontended Lock returns at once
	}
	return s.note + " blocks the event loop"
}
