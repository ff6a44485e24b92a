// Command hermes-vet runs the repo's protocol-invariant analyzers (see
// internal/analysis) over the packages matching the given patterns and exits
// non-zero if any finding survives its //hermesvet:ignore directives.
//
// Usage:
//
//	hermes-vet [-list] [packages...]
//
// Patterns default to ./... and are resolved by `go list` relative to the
// current directory, so `go run ./cmd/hermes-vet ./...` from the repo root
// checks the whole tree. Each surviving finding prints as one
// `file:line:col: [analyzer] message` line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hermes-vet [-list] [packages...]\n\nAnalyzers:\n")
		writeAnalyzerListing(flag.CommandLine.Output())
	}
	flag.Parse()
	if *list {
		writeAnalyzerListing(os.Stdout)
		return
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes-vet:", err)
		os.Exit(2)
	}
	n, err := vet(dir, flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes-vet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "hermes-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// writeAnalyzerListing prints one "name  doc" line per registered analyzer.
// Both the -list flag and the usage text go through here so the two can
// never drift apart.
func writeAnalyzerListing(w io.Writer) {
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// vet loads the packages, prints each finding that survived its ignore
// directives and returns their count (the count that decides the exit code).
func vet(dir string, patterns []string, out io.Writer) (int, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzers(pkg, analysis.All()) {
			fmt.Fprintln(out, d)
			total++
		}
	}
	return total, nil
}
