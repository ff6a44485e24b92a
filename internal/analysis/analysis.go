// Package analysis is hermes-vet: a suite of static analyzers that turn the
// repository's protocol invariants — conventions that previously lived only
// in comments and were enforced only by after-the-fact tests — into
// build-breaking checks. The eight analyzers are:
//
//   - eventloop: code reachable from protocol message handlers and the live
//     runtime's event-loop callbacks must never block (cluster's "only
//     enqueue" contract).
//   - atomicfield: a struct field accessed atomically must be a typed
//     atomic (atomic.Uint64 etc.), never &x.f passed to a sync/atomic
//     function, so no plain access to it can compile.
//   - wingscodec: wire decoders must bound-check wire-declared counts before
//     allocating, and every wire type needs a registered fuzz target.
//   - exhaustive: switches over protocol enums and terminal type-switches
//     over protocol messages must cover every variant or carry an explicit
//     failing default.
//   - determinism: the seeded-replay packages (internal/sim, internal/core,
//     internal/shardhost, internal/bench) must not consult wall clocks,
//     global randomness, or unordered map iteration for decisions that feed
//     the network schedule (the map-order retransmission bug).
//   - reftrack: interprocedural reference balance — every frame-buffer
//     reference acquired (Retain, TryRetain, Pool.Get, a call returning a
//     retained buffer) must be spent exactly once on every path — and the
//     owner-escape check of the zero-copy value path: a value that may
//     alias a pooled buffer (the Value of a struct carrying an Owner
//     *refbuf.Buf) must not reach an owner-less destination without a
//     clone, bare or through same-package helpers, and an adopting literal
//     must carry the owner.
//   - creditflow: transport credit discipline — error paths of
//     credit-debiting functions must refund.
//   - lockorder: no blocking operations while holding a mutex, and the
//     lock-acquisition-order graph must be acyclic.
//
// atomicfield, wingscodec, exhaustive and determinism are lexical: syntax
// and types, no call graph. eventloop, reftrack, creditflow and lockorder
// run on the summary-based interprocedural engine in engine.go (call graph,
// per-function effect summaries, fixpoint); its one blocking scan serves
// both eventloop's reports and the MayBlock summary lockorder reads.
//
// The suite is deliberately built on the standard library only (go/ast,
// go/types, `go list -export`): the container that grows this repo has no
// module proxy access, so golang.org/x/tools is off the table. The Analyzer,
// Pass and Diagnostic types below mirror the x/tools go/analysis shapes
// closely enough that the analyzers could be ported to real go/analysis
// drivers by swapping the harness.
//
// A finding is suppressed by an escape-hatch comment on the same line or the
// line above:
//
//	//hermesvet:ignore <analyzer>[,<analyzer>...] <justification>
//
// The justification is mandatory; a directive without one is itself a
// diagnostic, and so is one naming no registered analyzer (a typo, a retired
// name) and a stale directive — one that suppresses no finding of any
// analyzer in the run. `all` matches every analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings via pass.Report*.
	Run func(pass *Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's syntax and type information through one
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's compiled (non-test) syntax trees.
	Files []*ast.File
	// TestFiles are the package's in-package _test.go files, parsed but NOT
	// type-checked; wingscodec reads them to verify fuzz-target registration.
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	diags *[]Diagnostic
	// eng is the package's Engine, shared by every analyzer of one run.
	eng **Engine
}

// engine returns the package's interprocedural engine, built by the first
// analyzer that asks for it.
func (p *Pass) engine() *Engine {
	if *p.eng == nil {
		*p.eng = NewEngine(p)
	}
	return *p.eng
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //hermesvet:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // names, or ["all"]
	reason    string
	malformed string // non-empty: why the directive is unusable
	used      bool
	// fromTest marks directives in _test.go files; they are exempt from
	// stale-waiver detection (analyzers never report into test files, so
	// their directives are documentation, not suppression).
	fromTest bool
}

func (d *ignoreDirective) matches(analyzer string) bool {
	if d.malformed != "" {
		return false
	}
	for _, a := range d.analyzers {
		if a == "all" || a == analyzer {
			return true
		}
	}
	return false
}

const directivePrefix = "//hermesvet:ignore"

// parseDirectives collects every hermesvet:ignore directive in the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{file: pos.Filename, line: pos.Line}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //hermesvet:ignoreXXX — not ours.
					continue
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.malformed = "missing analyzer name and justification"
				case len(fields) == 1:
					d.malformed = "missing justification (a reason is mandatory)"
				default:
					d.analyzers = strings.Split(fields[0], ",")
					d.reason = strings.Join(fields[1:], " ")
					for _, name := range d.analyzers {
						if name != "all" && !registered(name) {
							d.malformed = fmt.Sprintf("%q names no registered analyzer", name)
							break
						}
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// registered reports whether name is an analyzer of the suite.
func registered(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// filterIgnored splits diagnostics into kept and suppressed — a directive
// on the same line or the line immediately above suppresses, and is marked
// used.
func filterIgnored(diags []Diagnostic, dirs []*ignoreDirective) (kept, suppressed []Diagnostic) {
	if len(dirs) == 0 {
		return diags, nil
	}
	byLine := map[string]map[int][]*ignoreDirective{}
	for _, d := range dirs {
		if byLine[d.file] == nil {
			byLine[d.file] = map[int][]*ignoreDirective{}
		}
		byLine[d.file][d.line] = append(byLine[d.file][d.line], d)
	}
	for _, dg := range diags {
		hit := false
		for _, line := range []int{dg.Pos.Line, dg.Pos.Line - 1} {
			for _, d := range byLine[dg.Pos.Filename][line] {
				if d.matches(dg.Analyzer) {
					d.used = true
					hit = true
				}
			}
		}
		if hit {
			suppressed = append(suppressed, dg)
		} else {
			kept = append(kept, dg)
		}
	}
	return kept, suppressed
}

// directiveDiagnostics reports malformed directives (once per package, not
// per analyzer) and — when the run's analyzer set can vouch for it — stale
// ones, under the pseudo-analyzer name "hermesvet". A directive is stale
// when it is well formed, lives in a non-test file, suppressed zero
// findings, and every analyzer it names ran (for `all`, when the whole
// registered suite ran): the code it excused no longer trips the check, so
// the waiver must not outlive it.
func directiveDiagnostics(dirs []*ignoreDirective, ranAnalyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range ranAnalyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
		}
	}
	var out []Diagnostic
	for _, d := range dirs {
		if d.malformed != "" {
			out = append(out, Diagnostic{
				Analyzer: "hermesvet",
				Pos:      token.Position{Filename: d.file, Line: d.line, Column: 1},
				Message:  "malformed ignore directive: " + d.malformed,
			})
			continue
		}
		if d.used || d.fromTest {
			continue
		}
		verifiable := true
		for _, name := range d.analyzers {
			if name == "all" {
				verifiable = verifiable && fullSuite
			} else {
				verifiable = verifiable && ran[name]
			}
		}
		if verifiable {
			out = append(out, Diagnostic{
				Analyzer: "hermesvet",
				Pos:      token.Position{Filename: d.file, Line: d.line, Column: 1},
				Message: fmt.Sprintf("stale ignore directive (%s): it suppresses no finding — remove it or re-justify it against the current code",
					strings.Join(d.analyzers, ",")),
			})
		}
	}
	return out
}

// VetResult is one package's full analyzer outcome: the surviving findings
// and the ones an ignore directive suppressed (machine consumers — the
// -json output — want both).
type VetResult struct {
	Kept       []Diagnostic
	Suppressed []Diagnostic
}

// RunAnalyzers executes the analyzers over one loaded package and returns
// the surviving (non-ignored) diagnostics in file/line order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAnalyzersDetail(pkg, analyzers).Kept
}

// RunAnalyzersDetail is RunAnalyzers keeping the suppressed findings too.
func RunAnalyzersDetail(pkg *Package, analyzers []*Analyzer) VetResult {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	for _, d := range parseDirectives(pkg.Fset, pkg.TestFiles) {
		d.fromTest = true
		dirs = append(dirs, d)
	}
	var all []Diagnostic
	var eng *Engine
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			diags:     &diags,
			eng:       &eng,
		}
		a.Run(pass)
		all = append(all, diags...)
	}
	kept, suppressed := filterIgnored(all, dirs)
	kept = append(kept, directiveDiagnostics(dirs, analyzers)...)
	sortDiags(kept)
	sortDiags(suppressed)
	return VetResult{Kept: kept, Suppressed: suppressed}
}

func sortDiags(all []Diagnostic) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// All returns the full hermes-vet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		EventLoopAnalyzer,
		AtomicFieldAnalyzer,
		WingsCodecAnalyzer,
		ExhaustiveAnalyzer,
		DeterminismAnalyzer,
		RefTrackAnalyzer,
		CreditFlowAnalyzer,
		LockOrderAnalyzer,
	}
}
