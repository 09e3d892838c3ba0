package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"polystyrene/internal/metrics"
	"polystyrene/internal/trace"
)

// AggregateRow folds the repetitions of one grid point — everything
// sharing (scenario, size, K, detector, exchange) — into mean ± CI95
// summaries, the paper-table granularity.
type AggregateRow struct {
	Scenario string
	// Kind is the scenario name; "reshape" rows render as Table II.
	Kind     string
	W, H, K  int
	Detector string
	Exchange int
	Reps     int
	// ShapeHeld counts repetitions that ended with h < H.
	ShapeHeld      int
	Homogeneity    metrics.Accumulator
	ReferenceH     metrics.Accumulator
	ReliabilityPct metrics.Accumulator
	// ReshapeRounds folds the reshaping time of reshape cells.
	ReshapeRounds metrics.Accumulator
}

// Aggregate groups cell results by grid point, preserving first-seen
// (i.e. expansion) order so the output is deterministic.
func Aggregate(results []CellResult) []*AggregateRow {
	type key struct {
		scenario string
		w, h, k  int
		det      string
		exchange int
	}
	index := make(map[key]*AggregateRow)
	var rows []*AggregateRow
	for _, r := range results {
		c := r.Cell
		k := key{c.Scenario.Label, c.W, c.H, c.K, c.Detector, c.Exchange}
		row, ok := index[k]
		if !ok {
			row = &AggregateRow{
				Scenario: c.Scenario.Label,
				Kind:     c.Scenario.Name,
				W:        c.W, H: c.H, K: c.K,
				Detector: c.Detector,
				Exchange: c.Exchange,
			}
			index[k] = row
			rows = append(rows, row)
		}
		row.Reps++
		if r.ShapeHeld {
			row.ShapeHeld++
		}
		row.Homogeneity.Add(r.FinalHomogeneity)
		row.ReferenceH.Add(r.ReferenceH)
		row.ReliabilityPct.Add(r.ReliabilityPct)
		row.ReshapeRounds.Add(float64(r.ReshapeRounds))
	}
	return rows
}

// WriteAggregateCSV emits one row per grid point with mean and CI95
// columns.
func WriteAggregateCSV(w io.Writer, rows []*AggregateRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "scenario,nodes,w,h,k,detector,exchange,reps,shape_held,homogeneity_mean,homogeneity_ci95,reference_h_mean,reliability_pct_mean,reliability_pct_ci95,reshape_rounds_mean,reshape_rounds_ci95")
	for _, r := range rows {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s\n",
			r.Scenario, r.W*r.H, r.W, r.H, r.K, r.Detector, r.Exchange, r.Reps, r.ShapeHeld,
			ftoa(r.Homogeneity.Mean()), ftoa(r.Homogeneity.CI95()),
			ftoa(r.ReferenceH.Mean()),
			ftoa(r.ReliabilityPct.Mean()), ftoa(r.ReliabilityPct.CI95()),
			ftoa(r.ReshapeRounds.Mean()), ftoa(r.ReshapeRounds.CI95()))
	}
	return bw.Flush()
}

// WriteTables renders the aggregate as paper-ready markdown: one table
// per scenario (rows ordered as expanded; a reshape scenario in Table II's
// columns) and a determinism-audit footer — the grid's exchange axis
// shares seeds, so equal-trajectory groups must agree; `groups` is
// AuditDeterminism's count.
func WriteTables(w io.Writer, name string, rows []*AggregateRow, groups int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", name)
	var order []string
	byScenario := make(map[string][]*AggregateRow)
	for _, r := range rows {
		if _, ok := byScenario[r.Scenario]; !ok {
			order = append(order, r.Scenario)
		}
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	headers := []string{"nodes", "k", "detector", "w", "reps", "shape held", "homogeneity h", "reference H", "reliability %"}
	tableII := []string{"nodes", "k", "detector", "w", "reps", "reshaped", "reshaping rounds", "reliability %"}
	for _, scn := range order {
		fmt.Fprintf(bw, "\n## %s\n\n", scn)
		var md [][]any
		hdr := headers
		for _, r := range byScenario[scn] {
			if r.Kind == "reshape" {
				hdr = tableII
				md = append(md, []any{
					r.W * r.H, r.K, r.Detector, r.Exchange,
					r.Reps,
					fmt.Sprintf("%d/%d", r.ShapeHeld, r.Reps),
					fmt.Sprintf("%.2f ± %.3f", r.ReshapeRounds.Mean(), r.ReshapeRounds.CI95()),
					fmt.Sprintf("%.2f ± %.2f", r.ReliabilityPct.Mean(), r.ReliabilityPct.CI95()),
				})
				continue
			}
			md = append(md, []any{
				r.W * r.H, r.K, r.Detector, r.Exchange,
				r.Reps,
				fmt.Sprintf("%d/%d", r.ShapeHeld, r.Reps),
				fmt.Sprintf("%.4f ± %.4f", r.Homogeneity.Mean(), r.Homogeneity.CI95()),
				fmt.Sprintf("%.4f", r.ReferenceH.Mean()),
				fmt.Sprintf("%.1f ± %.1f", r.ReliabilityPct.Mean(), r.ReliabilityPct.CI95()),
			})
		}
		if err := trace.MarkdownTable(bw, hdr, md); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "\nDeterminism audit: %d identity groups byte-identical across exchange parallelism.\n", groups)
	return bw.Flush()
}

// Analyze re-derives aggregate.csv and tables.md from a results folder's
// grid.csv — including re-running the determinism audit, so a tampered
// or divergent grid fails here rather than aggregating silently.
func Analyze(dir string) error {
	f, err := os.Open(dir + "/grid.csv")
	if err != nil {
		return err
	}
	results, err := ReadGridCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	groups, err := AuditDeterminism(results)
	if err != nil {
		return err
	}
	rows := Aggregate(results)
	af, err := os.Create(dir + "/aggregate.csv")
	if err != nil {
		return err
	}
	if err := WriteAggregateCSV(af, rows); err != nil {
		af.Close()
		return err
	}
	if err := af.Close(); err != nil {
		return err
	}
	name := strings.TrimSuffix(dir, "/")
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	tf, err := os.Create(dir + "/tables.md")
	if err != nil {
		return err
	}
	if err := WriteTables(tf, name, rows, groups); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}
