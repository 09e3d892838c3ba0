// Routing: why shape preservation matters for greedy geometric routing.
//
// Overlays like CAN route greedily: each hop forwards to the neighbour
// closest to the target, which works because nodes are spread uniformly
// over the data space. This example converges a torus, crashes its right
// half, and then fires greedy routes into the dead region — once over the
// Polystyrene-recovered shape, once over the plain T-Man baseline. Over
// the recovered shape every route lands on top of its target; over the
// collapsed shape routes stall at the old boundary, half a torus away.
//
//	go run ./examples/routing
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"polystyrene/internal/scenario"
	"polystyrene/internal/space"
)

func main() {
	if err := demo(os.Stdout, 40, 20); err != nil {
		log.Fatal(err)
	}
}

// stats summarises the greedy routes fired from one source.
type stats struct {
	routes    int
	meanDist  float64 // mean distance from the delivery node to the target
	worstDist float64
	meanHops  float64
}

func probe(poly bool, w, h int) (stats, error) {
	sc, err := scenario.New(scenario.Config{
		Seed: 9, W: w, H: h, Polystyrene: poly, K: 4, SkipMetrics: true,
	})
	if err != nil {
		return stats{}, err
	}
	sc.Run(20)
	sc.FailRightHalf()
	sc.Run(20)

	// Probe targets spread across the crashed half, each routed from one
	// source over every node's 4 closest overlay neighbours.
	var st stats
	hops := 0
	src := sc.Engine.LiveIDs()[0]
	// The half width is rounded alone, so no GOARCH fuses w*0.5 + 2 (scripts/nofma.sh).
	for x := float64(float64(w)/2) + 2; x < float64(w); x += 4 {
		for y := 2.0; y < float64(h); y += 5 {
			_, d, n, _ := sc.Descend(src, space.Point{x, y}, 4)
			st.routes++
			st.meanDist += d
			st.worstDist = max(st.worstDist, d)
			hops += n
		}
	}
	st.meanDist /= float64(st.routes)
	st.meanHops = float64(hops) / float64(st.routes)
	return st, nil
}

func demo(out io.Writer, w, h int) error {
	fmt.Fprintf(out, "greedy routing into the crashed half of a %dx%d torus\n\n", w, h)
	for _, poly := range []bool{false, true} {
		name := "polystyrene"
		if !poly {
			name = "t-man only "
		}
		st, err := probe(poly, w, h)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s  %2d routes: mean final distance %5.2f, worst %5.2f, mean hops %.1f\n",
			name, st.routes, st.meanDist, st.worstDist, st.meanHops)
	}
	fmt.Fprintln(out, "\nOver the recovered shape, greedy routing delivers next to every target;")
	fmt.Fprintln(out, "over the collapsed one it stalls at the old failure boundary.")
	return nil
}
