package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in the usage error
	}{
		{[]string{"-hours", "0"}, "-hours must be above 0"},
		{[]string{"-hours", "-1"}, "-hours must be above 0"},
		{[]string{"-hours", "1e-20"}, "-hours must be above 0"}, // rounds to no time at all
		{[]string{"-hours", "NaN"}, "-hours must be above 0"},
		{[]string{"-nodes", "0"}, "-nodes must be at least 3"},
		{[]string{"-nodes", "2"}, "-nodes must be at least 3"},
		{[]string{"-txs", "-1"}, "-txs must not be negative"},
		{[]string{"-runs", "0"}, "-runs must be at least 1"},
		{[]string{"-nodes", "many"}, "invalid value"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, got)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-trace-out") {
			t.Errorf("%v: stderr lacks the usage text:\n%s", tc.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a rejected command line wrote to stdout:\n%s", tc.args, stdout.String())
		}
	}
}

func TestTinyRunSameAtAnyWorkerCount(t *testing.T) {
	args := []string{"-nodes", "10", "-hours", "0.5", "-txs", "5", "-seed", "3", "-runs", "3"}
	outputs := map[string]string{}
	for _, workers := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if got := run(append([]string{"-workers", workers}, args...), &stdout, &stderr); got != 0 {
			t.Fatalf("-workers %s: exit status %d\n%s", workers, got, stderr.String())
		}
		// The summary reports the configuration the runs used.
		if want := "simulated 10 nodes for 30m0s of virtual time x 3 run(s)"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-workers %s: stderr lacks %q:\n%s", workers, want, stderr.String())
		}
		outputs[workers] = stdout.String()
	}
	if outputs["1"] != outputs["4"] {
		t.Errorf("stdout differs between -workers 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", outputs["1"], outputs["4"])
	}
	for _, want := range []string{"-- run 2 (seed 15841) --", "blocks mined:", "tx relay delay:"} {
		if !strings.Contains(outputs["1"], want) {
			t.Errorf("stdout lacks %q:\n%s", want, outputs["1"])
		}
	}
}
