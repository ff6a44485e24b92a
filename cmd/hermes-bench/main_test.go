package main

import (
	"os"
	"strings"
	"testing"
)

func names(sel []experiment) string {
	var ns []string
	for _, r := range sel {
		ns = append(ns, r.name)
	}
	return strings.Join(ns, " ")
}

func TestPickSelectsInTableOrder(t *testing.T) {
	sel, err := pick("gray, fig5a,table2")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel); got != "table2 fig5a gray" {
		t.Fatalf("picked %q, want table order", got)
	}
	if all, err := pick("all"); err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
}

// One unknown name rejects the whole list — it used to be dropped silently
// as long as some other name matched — and the error lists every row.
func TestPickRejectsUnknownNameInList(t *testing.T) {
	for _, exp := range []string{"bogus", "fig5a,bogus", "bogus,fig5a", "fig5a,,gray", ""} {
		sel, err := pick(exp)
		if err == nil {
			t.Fatalf("-exp %q: picked %q, want an error", exp, names(sel))
		}
		for _, r := range experiments {
			if !strings.Contains(err.Error(), " "+r.name) {
				t.Fatalf("-exp %q: error %q does not list %s", exp, err, r.name)
			}
		}
	}
	if _, err := pick("fig5a,bogus"); !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error %q does not name the offender", err)
	}
}

// The package comment lists the experiments by hand; it must be the table.
func TestPackageCommentListsTheTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(src), "// Experiments:")
	if !ok {
		t.Fatal("main.go: no \"// Experiments:\" line in the package comment")
	}
	list, _, _ = strings.Cut(list, "package main")
	got := strings.Join(strings.Fields(strings.ReplaceAll(list, "//", " ")), " ")
	if want := names(experiments); got != want {
		t.Fatalf("package comment lists\n  %s\nthe table has\n  %s", got, want)
	}
}
