package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"polystyrene/internal/scenario"
	"polystyrene/internal/viz"
)

// vizCmd renders snapshots of the overlay at chosen rounds of the
// three-phase scenario, reproducing the visual figures of the paper:
//
//	poly viz -tman -rounds 19,40 -out fig1   # Fig. 1 (T-Man loses the shape)
//	poly viz -k 4 -rounds 22,28 -out fig8    # Fig. 8 (repair)
//	poly viz -rounds 125 -out fig9poly       # Fig. 9b (after reinjection)
//
// Each requested round r produces <out>-r<r>.svg plus an ASCII density map
// on stdout.
type vizCmd struct {
	scen   scenarioFlags
	rounds string
	prefix string
}

func (c *vizCmd) flags(fs *flag.FlagSet) {
	ph := scenario.PaperPhases()
	c.scen.register(fs, ph.FailAt, ph.ReinjectAt, true)
	fs.StringVar(&c.rounds, "rounds", "22,28", "comma-separated rounds to snapshot")
	fs.StringVar(&c.prefix, "out", "snapshot", "output file prefix")
}

func (c *vizCmd) run(out, _ io.Writer) error {
	rounds, err := parseRounds(c.rounds)
	if err != nil {
		return err
	}
	last := rounds[len(rounds)-1]
	// The script must reach its reinjection round to validate; the drive
	// stops once the last requested round has run.
	ph := c.scen.phases(max(last+1, c.scen.reinjectAt))
	if err := ph.Validate(); err != nil {
		return err
	}
	cfg := c.scen.config()
	cfg.SkipMetrics = true
	sc, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()

	// report prints round r's events and, if r was requested, its
	// snapshot, once r has run. The script's one crash is the only way a
	// node dies and its one reinjection the only way one joins, so the
	// population counts tell what the events did.
	report := func(r int) error {
		e := sc.Engine
		if r == ph.FailAt {
			fmt.Fprintf(out, "# round %d: crashed %d nodes\n", r, e.NumNodes()-e.NumLive())
		}
		if added := e.NumNodes() - cfg.W*cfg.H; r == ph.ReinjectAt && added > 0 {
			fmt.Fprintf(out, "# round %d: reinjected %d nodes\n", r, added)
		}
		if !slices.Contains(rounds, r) {
			return nil
		}
		snap := sc.Snapshot()
		name := fmt.Sprintf("%s-r%d.svg", c.prefix, r)
		var svg bytes.Buffer
		if err := viz.WriteSVG(&svg, sc.Space, snap, viz.SVGOptions{}); err != nil {
			return err
		}
		if err := os.WriteFile(name, svg.Bytes(), 0o666); err != nil {
			return err
		}
		occ := viz.OccupancyStats(sc.Space, snap, cfg.W/2, cfg.H/2)
		fmt.Fprintf(out, "# round %d: %d live nodes, occupancy %.0f%% -> %s\n",
			r, e.NumLive(), 100*occ, name)
		fmt.Fprintln(out, viz.ASCIIDensity(sc.Space, snap, min(cfg.W, 80), min(cfg.H, 40)))
		return nil
	}
	scenario.DrivePhasesFunc(sc, ph, last+1, func(r int) bool {
		if r > 0 {
			err = report(r - 1)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	return report(last)
}

func parseRounds(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || r < 0 {
			return nil, fmt.Errorf("invalid round %q", p)
		}
		out = append(out, r)
	}
	if !slices.IsSorted(out) {
		return nil, errors.New("rounds must be ascending")
	}
	return out, nil
}
