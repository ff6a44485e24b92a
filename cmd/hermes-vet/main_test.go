package main

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The repo itself must vet clean — this is the same gate CI applies, kept
// here so `go test ./...` catches a regression before the CI step does.
func TestRepoVetsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo")
	}
	var out strings.Builder
	n, err := vet("../..", []string{"./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("hermes-vet found %d finding(s) on the repo:\n%s", n, out.String())
	}
}

// The golden red cases must be visible through the CLI path too, not just
// the analysistest harness.
func TestGoldenTreeHasFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the golden module")
	}
	var out strings.Builder
	n, err := vet("../../internal/analysis/testdata", []string{"./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected findings in the golden tree, got none")
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), "["+a.Name+"]") {
			t.Errorf("no %s finding surfaced through the CLI:\n%s", a.Name, out.String())
		}
	}
}

// Every registered analyzer must appear in the shared listing used by both
// -list and the usage text; the two are the same helper, so this pins that
// neither path can miss an analyzer.
func TestAnalyzerListingComplete(t *testing.T) {
	var out strings.Builder
	writeAnalyzerListing(&out)
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("analyzer %q missing from the listing:\n%s", a.Name, out.String())
		}
	}
	if got, want := strings.Count(out.String(), "\n"), len(analysis.All()); got != want {
		t.Errorf("listing has %d lines, want one per analyzer (%d)", got, want)
	}
}
