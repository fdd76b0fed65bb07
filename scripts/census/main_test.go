package main

import (
	"bytes"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestModuleHoldsTheRules runs the census over this module, so that
// `go test ./...` enforces what CI's census step does.
func TestModuleHoldsTheRules(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	fields, funcs, err := census(".")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !report(&out, fields) {
		t.Errorf("config census:\n%s", out.String())
	}
	out.Reset()
	if !reportReach(&out, funcs, reachKeep) {
		t.Errorf("reach census:\n%s", out.String())
	}
}

// TestReachVerdicts pins the reach rule on testdata/reach, a module with
// one function per way of being reached or not: every function named here
// gets the finding given, and no other function gets one.
func TestReachVerdicts(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	_, funcs, err := census("testdata/reach")
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]kept{
		"lib.Observed": {"observe", "lib_test.go", "kept, and underObserved with it"},
		"lib.Promoted": {"observe", "lib_test.go", "stale: app calls it"},
		"lib.Untested": {"observe", "lib_test.go", "stale: the test file does not name it"},
		"lib.Removed":  {"observe", "lib_test.go", "stale: no such function"},
		"lib.Orphan":   {"handy", "lib_test.go", "not a kind"},
	}
	want := map[string]string{
		// Reached, each in its own way, so no finding: Square.Area (an
		// interface conversion), Square.Perimeter (a method value),
		// Sink.Write (a standard-library interface), Wrapped.Unwrap (an
		// interface errors asserts to in place), fromVar (a package-level
		// var), underObserved (under a kept function).
		"lib.Scaled.Area":     "reached by no binary (no code at all)",
		"lib.OnlyTested":      "reached by no binary (only lib_test.go)",
		"lib.underOnlyTested": "reached by no binary (no code at all)",
		"lib.Promoted":        "stale keep entry: a binary reaches",
		"lib.Untested":        "stale keep entry: lib_test.go does not name",
		"lib.Removed":         "does not exist",
		"lib.Orphan":          `has kind "handy"`,
	}
	var out bytes.Buffer
	if reportReach(&out, funcs, keep) {
		t.Error("the fixture module passed the reach rule")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:] // minus the counts
	for name, finding := range want {
		word := regexp.MustCompile(`(^|[ :])` + regexp.QuoteMeta(name) + `( |;|$)`)
		found := false
		for _, line := range lines {
			if word.MatchString(line) && strings.Contains(line, finding) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding %q for %s", finding, name)
		}
	}
	if len(lines) != len(want) {
		t.Errorf("%d findings, want %d", len(lines), len(want))
	}
	if t.Failed() {
		t.Logf("report:\n%s", out.String())
	}
}
