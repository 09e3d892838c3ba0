package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"polystyrene/internal/scenario"
)

// Results-folder layout. One grid run writes <out>/<name>-<stamp>/ with:
//
//	experiments.json   the spec, byte-for-byte as given (provenance)
//	grid.csv           one row per cell: identity, seed and final summary
//	cells/<id>.csv     the cell's per-round series (see writeCellCSV);
//	                   reshape cells record no series and write none
//	aggregate.csv      repetitions folded: mean and CI95 per grid point
//	tables.md          paper-ready markdown tables + determinism audit
//
// grid.csv is the analyzer's input: Analyze(dir) regenerates
// aggregate.csv and tables.md from it alone, so a results folder stays
// re-analyzable long after the run.

const gridHeader = "cell,scenario,kind,w,h,k,detector,exchange,rep,seed,schedule_seed,rounds,final_homogeneity,reference_h,shape_held,reliability_pct,reshape_rounds,fingerprint"

// gridFields is the column count of gridHeader.
const gridFields = 18

// WriteResults lays down a results folder for one executed grid:
// the spec copy, grid.csv and the per-cell series CSVs, then runs the
// analyzer over it (aggregate.csv, tables.md).
func WriteResults(dir string, specData []byte, results []CellResult) error {
	if err := os.MkdirAll(dir+"/cells", 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(dir+"/experiments.json", specData, 0o644); err != nil {
		return err
	}
	g, err := os.Create(dir + "/grid.csv")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(g)
	fmt.Fprintln(bw, gridHeader)
	for _, r := range results {
		c := r.Cell
		held := 0
		if r.ShapeHeld {
			held = 1
		}
		fmt.Fprintf(bw, "%s,%s,%s,%d,%d,%d,%s,%d,%d,%016x,%016x,%d,%s,%s,%d,%s,%d,%016x\n",
			c.ID(), c.Scenario.Label, c.Scenario.Name, c.W, c.H, c.K, c.Detector, c.Exchange, c.Rep,
			c.Seed, c.ScheduleSeed, c.Rounds,
			ftoa(r.FinalHomogeneity), ftoa(r.ReferenceH), held, ftoa(r.ReliabilityPct), r.ReshapeRounds, r.Fingerprint)
	}
	if err := bw.Flush(); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	for _, r := range results {
		if r.Series == nil {
			continue
		}
		if err := writeCellCSV(dir+"/cells/"+r.Cell.ID()+".csv", r.Series); err != nil {
			return err
		}
	}
	return Analyze(dir)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// cellHeader is the header row of a cell's per-round series CSV.
const cellHeader = "round,live,homogeneity,proximity,datapoints_per_node,msgcost_per_node"

// writeCellCSV writes the per-round series as CSV: cellHeader, then one
// row per round with every value, the round and live count included, in
// its shortest exact decimal form (ftoa).
func writeCellCSV(path string, res *scenario.Result) error {
	n := len(res.LiveNodes)
	series := [][]float64{res.Homogeneity, res.Proximity, res.DataPoints, res.MsgCost}
	for _, col := range series {
		if len(col) != n {
			return fmt.Errorf("experiments: a cell series has %d rounds, its live counts %d", len(col), n)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriter(f)
	bw.WriteString(cellHeader + "\n")
	for i := range n {
		bw.WriteString(ftoa(float64(i)) + "," + ftoa(float64(res.LiveNodes[i])))
		for _, col := range series {
			bw.WriteString("," + ftoa(col[i]))
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadGridCSV parses grid.csv back into summary-only CellResults (Series
// is nil) — everything the analyzer and the determinism audit need.
func ReadGridCSV(r io.Reader) ([]CellResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("experiments: empty grid.csv")
	}
	if got := strings.TrimSpace(sc.Text()); got != gridHeader {
		return nil, fmt.Errorf("experiments: grid.csv header mismatch:\n  got  %s\n  want %s", got, gridHeader)
	}
	var out []CellResult
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != gridFields {
			return nil, fmt.Errorf("experiments: grid.csv line %d has %d fields, want %d", line, len(f), gridFields)
		}
		var r CellResult
		var err error
		atoi := func(s string) int {
			if err != nil {
				return 0
			}
			var v int
			v, err = strconv.Atoi(s)
			return v
		}
		atof := func(s string) float64 {
			if err != nil {
				return 0
			}
			var v float64
			v, err = strconv.ParseFloat(s, 64)
			return v
		}
		hexu := func(s string) uint64 {
			if err != nil {
				return 0
			}
			var v uint64
			v, err = strconv.ParseUint(s, 16, 64)
			return v
		}
		r.Cell = Cell{
			Index:        len(out),
			Scenario:     ScenarioSpec{Name: f[2], Label: f[1]},
			W:            atoi(f[3]),
			H:            atoi(f[4]),
			K:            atoi(f[5]),
			Detector:     f[6],
			Exchange:     atoi(f[7]),
			Rep:          atoi(f[8]),
			Seed:         hexu(f[9]),
			ScheduleSeed: hexu(f[10]),
			Rounds:       atoi(f[11]),
		}
		r.FinalHomogeneity = atof(f[12])
		r.ReferenceH = atof(f[13])
		r.ShapeHeld = atoi(f[14]) != 0
		r.ReliabilityPct = atof(f[15])
		r.ReshapeRounds = atoi(f[16])
		r.Fingerprint = hexu(f[17])
		if err != nil {
			return nil, fmt.Errorf("experiments: grid.csv line %d: %w", line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
