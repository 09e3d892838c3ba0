package main

import (
	"strings"
	"testing"
)

func TestDemoRoutesBothConfigurations(t *testing.T) {
	var buf strings.Builder
	if err := demo(&buf, 16, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"polystyrene", "t-man only", "routes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRoutingSurvivesCatastropheWithPolystyrene holds the example's own
// numbers to the paper's motivation: with Polystyrene the shape re-forms
// and greedy routes into the crashed half land near every target; with
// plain T-Man the dead half stays empty and routes stall far away.
func TestRoutingSurvivesCatastropheWithPolystyrene(t *testing.T) {
	poly, err := probe(true, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	tman, err := probe(false, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if poly.meanDist >= 1.5 {
		t.Errorf("Polystyrene routing mean final distance %v, want < 1.5", poly.meanDist)
	}
	if tman.meanDist < 2*poly.meanDist {
		t.Errorf("T-Man (%v) should be at least twice Polystyrene's (%v)", tman.meanDist, poly.meanDist)
	}
}
