package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture lists testdata's out files as parent/change pairs in run order.
func fixture(names ...string) []string {
	var paths []string
	for _, n := range names {
		paths = append(paths, filepath.Join("testdata", n+".json"))
	}
	return paths
}

func add(t *testing.T, ledger, commit string, files []string) error {
	t.Helper()
	args := append([]string{"add", "-ledger", ledger, "-spec", "testdata/spec.json", "-commit", commit, "-parent", "aaaaaaa"}, files...)
	return run(args, &bytes.Buffer{})
}

func TestAddThenTable(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	if err := add(t, ledger, "change", fixture("p1", "c1", "p2", "c2", "p3", "c3")); err != nil {
		t.Fatal(err)
	}
	rows, err := readLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Workloads) != 1 {
		t.Fatalf("want one row with one workload (cold never ran), got %+v", rows)
	}
	w := rows[0].Workloads[0]
	if w.Name != "hot" || len(w.Seeds) != 3 || w.Seeds[2] != 9 || w.Failed != [2]uint64{0, 2} || w.Incorrect != [2]int{0, 1} {
		t.Fatalf("workload %+v", w)
	}
	tput, lat := w.Metrics[0], w.Metrics[1]
	if tput.Parent.Median != 110 || tput.Parent.Q1 != 105 || tput.Parent.Q3 != 115 ||
		tput.Change.Median != 130 || tput.Change.Q1 != 117.5 || tput.Change.Runs[1] != 105 || tput.Wins != 2 {
		t.Fatalf("tput %+v", tput)
	}
	if lat.Better != "lower" || lat.Wins != 2 { // the tie at 12 counts for neither side
		t.Fatalf("lat %+v", lat)
	}

	var out bytes.Buffer
	if err := run([]string{"table", "-ledger", ledger}, &out); err != nil {
		t.Fatal(err)
	}
	want := `change against aaaaaaa: 26 s runs, go1.24.0, nproc 2, GOMAXPROCS 2, kernel 6.1

| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | wins | beyond parent IQR |
|---|---|---|---|---|---|---|
| ` + "`hot` | `tput` (1/s) | 110.0 [105.0, 115.0] | 130.0 [117.5, 135.0] | +18.2 % | 2/3 | yes |" + `
| ` + "`hot` | `lat_us` (us) | 11.00 [10.50, 11.50] | 10.00 [9.50, 11.00] | -9.1 % | 2/3 | no |" + `

` + "`hot`" + `: seeds 7 8 9; failed ops 0 parent, 2 change; incorrect runs 0 parent, 1 change.
`
	if out.String() != want {
		t.Fatalf("table:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestAddOnlyAppends(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	if err := add(t, ledger, "one", fixture("p1", "c1")); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := add(t, ledger, "one", fixture("p2", "c2")); err == nil || !strings.Contains(err.Error(), "already has a row") {
		t.Fatalf("second row for the same commit and parent: %v", err)
	}
	if err := add(t, ledger, "two", fixture("p2", "c2")); err != nil {
		t.Fatal(err)
	}
	rows, err := readLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Commit != "one" || rows[1].Commit != "two" {
		t.Fatalf("rows %+v", rows)
	}
	var out bytes.Buffer
	if err := run([]string{"table", "-ledger", ledger, "-commit", "one"}, &out); err != nil || !strings.HasPrefix(out.String(), "one against") {
		t.Fatalf("table -commit one: %v\n%s", err, out.String())
	}
	// The first row's bytes are unchanged by the append.
	after, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if head := strings.TrimSuffix(string(first), "\n]\n"); !strings.HasPrefix(string(after), head) {
		t.Fatal("appending rewrote the earlier row")
	}
}

func TestAddRejectsBadInput(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	for name, files := range map[string][]string{
		"seeds differ": fixture("p1", "c2"),
		"odd count":    fixture("p1", "c1", "p2"),
		"none":         nil,
	} {
		if err := add(t, ledger, "x", files); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Fatal("a rejected add wrote the ledger")
	}
	if err := run([]string{"table", "-ledger", ledger}, &bytes.Buffer{}); err == nil {
		t.Fatal("table of an empty ledger succeeded")
	}
}
