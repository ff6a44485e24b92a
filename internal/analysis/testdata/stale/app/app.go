// The waiver below outlived its finding: the full suite runs over this
// package and nothing is suppressed, so the directive itself must be
// reported as stale by the "hermesvet" pseudo-analyzer.
package app

func fine() int {
	x := 1 //hermesvet:ignore reftrack this waiver outlived the refactor that justified it
	return x
}
