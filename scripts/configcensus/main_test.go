package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// TestModuleHoldsTheRule runs the census over this module, so that
// `go test ./...` enforces what CI's census step does.
func TestModuleHoldsTheRule(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	fields, err := census()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !report(&out, fields) {
		t.Errorf("config census:\n%s", out.String())
	}
}
