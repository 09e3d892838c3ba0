package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestGridRequiresSpec(t *testing.T) {
	err := run([]string{"grid"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-spec is required") {
		t.Fatalf("grid without -spec: %v", err)
	}
}

func TestGridDryRunMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../scripts/paper/testdata/smoke_grid.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"grid", "-spec", "../../scripts/paper/smoke.json", "-dry-run"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("dry-run expansion diverged from the golden:\n%s", out.String())
	}
}
