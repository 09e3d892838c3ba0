// Datacenter: a ring-shaped key-value overlay spread across four
// datacenters, with key ranges correlated to datacenter placement — the
// deployment the paper's introduction warns about: "all the virtual
// machines handling contiguous keys hosted in the same rack".
//
// One datacenter (a contiguous quarter of the ring) loses power. With a
// classic topology-construction protocol the ring would keep a hole where
// the datacenter used to be; with Polystyrene the surviving nodes adopt
// the orphaned key positions and close the ring, so lookups for "dark"
// keys route to a nearby live owner again.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"polystyrene"
)

func main() {
	// 1024-key ring, 256 nodes: 64 per datacenter.
	if err := demo(os.Stdout, 1024, 256, 25); err != nil {
		log.Fatal(err)
	}
}

// datacenterOf maps a ring position to its hosting datacenter (0-3):
// contiguous arcs of the key space live in the same facility.
func datacenterOf(pos, ringSize float64) int {
	return int(pos/(ringSize/4)) % 4
}

// worstLookup probes lookups across the key space and reports the largest
// ring distance between a key and the node that answers for it.
func worstLookup(sys *polystyrene.System, ringSize float64) float64 {
	worst := 0.0
	// The step is rounded alone, so no GOARCH fuses ringSize*(1/64) + key (scripts/nofma.sh).
	for key := 0.0; key < ringSize; key += float64(ringSize / 64) {
		owner := sys.Lookup([]float64{key})
		if owner < 0 {
			return math.Inf(1)
		}
		pos := sys.NodePosition(owner)[0]
		d := math.Abs(pos - key)
		if d > ringSize/2 {
			d = ringSize - d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func outage(baseline bool, ringSize float64, nodes, rounds int) (worstBefore, worstAfter float64, err error) {
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              7,
		Space:             polystyrene.Ring(ringSize),
		Shape:             polystyrene.RingShape(nodes, ringSize),
		ReplicationFactor: 6, // survives pf=0.5 with ~99% per Sec. III-D; plenty for pf=0.25
		Baseline:          baseline,
	})
	if err != nil {
		return 0, 0, err
	}
	sys.Run(rounds)
	worstBefore = worstLookup(sys, ringSize)

	// Datacenter 2 loses power: every node whose current ring position
	// falls in its arc crashes at once.
	sys.CrashRegion(func(p []float64) bool { return datacenterOf(p[0], ringSize) == 2 })
	sys.Run(rounds)
	return worstBefore, worstLookup(sys, ringSize), nil
}

func demo(out io.Writer, ringSize float64, nodes, rounds int) error {
	fmt.Fprintf(out, "%d nodes on a %.0f-key ring across 4 datacenters; datacenter 2 fails\n\n", nodes, ringSize)
	for _, baseline := range []bool{true, false} {
		name := "polystyrene"
		if baseline {
			name = "t-man only "
		}
		before, after, err := outage(baseline, ringSize, nodes, rounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s  worst key→owner distance: %6.2f before, %6.2f after the outage\n",
			name, before, after)
	}
	fmt.Fprintln(out, "\nThe ideal spacing after losing a quarter of the nodes is ~", ringSize/float64(nodes*3/4))
	fmt.Fprintln(out, "Polystyrene closes the ring; T-Man leaves the dead datacenter's arc dark.")
	return nil
}
