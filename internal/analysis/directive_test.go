package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestParseDirectives(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //hermesvet:ignore eventloop justified because the section is bounded
	_ = 2 //hermesvet:ignore atomicfield,eventloop shared justification for two analyzers
	_ = 3 //hermesvet:ignore atomicfield
	_ = 4 //hermesvet:ignore
	_ = 5 //hermesvet:ignoreXX not a directive at all
	_ = 6 //hermesvet:ignore all blanket waiver with a reason
	_ = 7 //hermesvet:ignore eventlop a typo names no analyzer
	_ = 8 //hermesvet:ignore reftrack,bufown a retired name in a list
}
`
	fset, files := parseSrc(t, src)
	dirs := parseDirectives(fset, files)
	if len(dirs) != 7 {
		t.Fatalf("got %d directives, want 7 (the :ignoreXX comment is not one)", len(dirs))
	}
	if !dirs[0].matches("eventloop") || dirs[0].matches("atomicfield") {
		t.Errorf("directive 0 should match only eventloop: %+v", dirs[0])
	}
	if !dirs[1].matches("eventloop") || !dirs[1].matches("atomicfield") || dirs[1].matches("wingscodec") {
		t.Errorf("directive 1 should match its two analyzers: %+v", dirs[1])
	}
	if dirs[2].malformed == "" {
		t.Error("directive without justification should be malformed")
	}
	if dirs[2].matches("atomicfield") {
		t.Error("malformed directive must not suppress anything")
	}
	if dirs[3].malformed == "" {
		t.Error("bare directive should be malformed")
	}
	for _, name := range []string{"eventloop", "determinism", "hermesvet"} {
		if !dirs[4].matches(name) {
			t.Errorf("'all' directive should match %s", name)
		}
	}
	// A name no analyzer is registered under — a typo, a retired analyzer —
	// makes the directive malformed: it could never be used, so it could
	// never be found stale either.
	for i, name := range map[int]string{5: "eventlop", 6: "bufown"} {
		if !strings.Contains(dirs[i].malformed, `"`+name+`" names no registered analyzer`) {
			t.Errorf("directive %d naming %s: malformed = %q", i, name, dirs[i].malformed)
		}
		if dirs[i].matches("reftrack") || dirs[i].matches("eventloop") {
			t.Errorf("directive %d naming %s must not suppress anything", i, name)
		}
	}
	// With no analyzers ran, only the four malformed directives are
	// diagnosed — staleness of the others cannot be vouched for.
	if got := len(directiveDiagnostics(dirs, nil)); got != 4 {
		t.Fatalf("got %d malformed-directive diagnostics, want 4", got)
	}
}

func TestStaleDirectiveDetection(t *testing.T) {
	mk := func(used, fromTest bool, analyzers ...string) []*ignoreDirective {
		return []*ignoreDirective{{
			file: "a.go", line: 1, analyzers: analyzers, reason: "r",
			used: used, fromTest: fromTest,
		}}
	}
	countStale := func(dirs []*ignoreDirective, ran []*Analyzer) int {
		n := 0
		for _, d := range directiveDiagnostics(dirs, ran) {
			if d.Analyzer == "hermesvet" && d.Message != "" && d.Pos.Line == 1 {
				n++
			}
		}
		return n
	}
	full := All()
	one := []*Analyzer{EventLoopAnalyzer}
	cases := []struct {
		name string
		dirs []*ignoreDirective
		ran  []*Analyzer
		want int
	}{
		{"unused directive, its analyzer ran", mk(false, false, "eventloop"), one, 1},
		{"used directive", mk(true, false, "eventloop"), one, 0},
		{"unused but its analyzer did not run", mk(false, false, "reftrack"), one, 0},
		{"unused in a test file", mk(false, true, "eventloop"), one, 0},
		{"unused 'all' with the full suite", mk(false, false, "all"), full, 1},
		{"unused 'all' with a partial run", mk(false, false, "all"), one, 0},
	}
	for _, tc := range cases {
		if got := countStale(tc.dirs, tc.ran); got != tc.want {
			t.Errorf("%s: got %d stale diagnostics, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFilterIgnored(t *testing.T) {
	dirs := []*ignoreDirective{
		{file: "a.go", line: 10, analyzers: []string{"eventloop"}, reason: "r"},
	}
	diags := []Diagnostic{
		{Analyzer: "eventloop", Pos: token.Position{Filename: "a.go", Line: 10}},   // same line: suppressed
		{Analyzer: "eventloop", Pos: token.Position{Filename: "a.go", Line: 11}},   // directive on line above: suppressed
		{Analyzer: "determinism", Pos: token.Position{Filename: "a.go", Line: 10}}, // wrong analyzer: kept
		{Analyzer: "eventloop", Pos: token.Position{Filename: "a.go", Line: 13}},   // out of range: kept
		{Analyzer: "eventloop", Pos: token.Position{Filename: "b.go", Line: 10}},   // wrong file: kept
	}
	if kept := filterIgnored(diags, dirs); !slices.Equal(kept, diags[2:]) {
		t.Fatalf("kept %v, want %v", kept, diags[2:])
	}
	if !dirs[0].used {
		t.Error("directive should be marked used")
	}
}
