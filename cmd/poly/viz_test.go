package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRounds(t *testing.T) {
	got, err := parseRounds("22, 28")
	if err != nil || len(got) != 2 || got[0] != 22 || got[1] != 28 {
		t.Fatalf("parseRounds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "-1", "10,5"} {
		if _, err := parseRounds(bad); err == nil {
			t.Errorf("parseRounds(%q) accepted", bad)
		}
	}
}

func TestRunWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "snap")
	var b strings.Builder
	err := run([]string{
		"viz", "-w", "16", "-h", "8", "-fail-at", "5", "-rounds", "4,10", "-out", prefix,
	}, &b, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"4", "10"} {
		name := prefix + "-r" + r + ".svg"
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing snapshot %s: %v", name, err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Fatalf("%s is not SVG", name)
		}
	}
	if !strings.Contains(b.String(), "crashed") {
		t.Fatal("failure event not reported")
	}
}

// TestVizRejectsInvalidPhases pins that viz validates its phase script
// like sim does, instead of crashing and never reinjecting.
func TestVizRejectsInvalidPhases(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	err := run([]string{
		"viz", "-w", "16", "-h", "8", "-fail-at", "5", "-reinject-at", "2",
		"-rounds", "6", "-out", filepath.Join(dir, "snap"),
	}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "invalid phases") {
		t.Fatalf("reinjection before the failure accepted: %v\n%s", err, b.String())
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("rejected script wrote %d files", len(ents))
	}
}

// TestVizReportsSameRoundFailAndReinject pins the event lines of a
// script that crashes and reinjects in one round: both counts are the
// crashed half of the 16x8 torus.
func TestVizReportsSameRoundFailAndReinject(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"viz", "-w", "16", "-h", "8", "-fail-at", "5", "-reinject-at", "5",
		"-rounds", "5", "-out", filepath.Join(t.TempDir(), "snap"),
	}, &b, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := "# round 5: crashed 64 nodes\n# round 5: reinjected 64 nodes\n# round 5: 128 live nodes"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, b.String())
	}
}
