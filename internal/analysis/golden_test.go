package analysis_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over its golden tree under testdata/ (a standalone
// `vettest` module the go tool otherwise ignores). The red cases prove the
// analyzer fires — if it ever stops, the unmatched want comment fails the
// test — and the ignore-directive cases prove suppression works.

func TestEventLoopGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.EventLoopAnalyzer, "./eventloop/...")
}

func TestAtomicFieldGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AtomicFieldAnalyzer, "./atomicfield/...")
}

func TestWingsCodecGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WingsCodecAnalyzer, "./wingscodec/...")
}

func TestExhaustiveGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ExhaustiveAnalyzer, "./exhaustive/...")
}

func TestDeterminismGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "./determinism/...")
}

func TestRefTrackGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.RefTrackAnalyzer, "./reftrack/...")
}

// TestBufOwnGolden pins the cases of the retired bufown analyzer, now
// reftrack's depth-0 owner-escape check (reftrack/app/escape.go): its three
// red cases are still reported, under reftrack, and its waived case is still
// found and suppressed rather than gone blind — were reftrack blind there,
// the waiver above it would suppress nothing and be reported stale, a fourth
// finding, under hermesvet.
func TestBufOwnGolden(t *testing.T) {
	pkgs, err := analysis.Load("testdata", "./reftrack/app")
	if err != nil {
		t.Fatalf("loading reftrack fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := analysis.RunAnalyzers(pkgs[0], []*analysis.Analyzer{analysis.RefTrackAnalyzer})
	lines := func(diags []analysis.Diagnostic) []int {
		var out []int
		for _, d := range diags {
			if filepath.Base(d.Pos.Filename) != "escape.go" {
				continue
			}
			if d.Analyzer != "reftrack" {
				t.Errorf("escape.go finding attributed to %q, want reftrack: %v", d.Analyzer, d)
			}
			out = append(out, d.Pos.Line)
		}
		return out
	}
	if got, want := lines(diags), []int{12, 23, 39}; !slices.Equal(got, want) {
		t.Errorf("escape.go findings at lines %v, want %v: %v", got, want, diags)
	}
}

func TestLockOrderGolden(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockOrderAnalyzer, "./lockorder/...")
}

// TestStaleWaiverGolden runs the full suite over a package whose only
// directive suppresses nothing: the directive itself must be the one finding.
// (Want comments can't express this — a directive line cannot carry a second
// comment — so the reconciliation is done directly.)
func TestStaleWaiverGolden(t *testing.T) {
	pkgs, err := analysis.Load("testdata", "./stale/...")
	if err != nil {
		t.Fatalf("loading stale fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := analysis.RunAnalyzers(pkgs[0], analysis.All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale-directive finding: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "hermesvet" {
		t.Errorf("finding attributed to %q, want the hermesvet pseudo-analyzer", d.Analyzer)
	}
	if !strings.Contains(d.Message, "stale ignore directive (reftrack)") {
		t.Errorf("unexpected message: %q", d.Message)
	}
	if filepath.Base(d.Pos.Filename) != "app.go" || d.Pos.Line != 7 {
		t.Errorf("finding at %s:%d, want app.go:7 (the directive's line)", filepath.Base(d.Pos.Filename), d.Pos.Line)
	}
}

func TestAllAnalyzersDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %q incompletely defined", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != len(analysis.All()) {
		t.Fatalf("expected %d distinct analyzers, got %d", len(analysis.All()), len(seen))
	}
}
