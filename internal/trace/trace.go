// Package trace holds the plain-data formats of the experiment pipeline:
// the per-round metric Table and its CSV writer, which `poly grid` uses
// for each cell's series, markdown tables for the analyzer's tables.md,
// and churn schedules with their generators and CSV parser.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Table is a named collection of equal-length columns, the in-memory form
// of one experiment's CSV.
type Table struct {
	names   []string
	columns map[string][]float64
	rows    int
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{columns: make(map[string][]float64)}
}

// AddColumn appends a column. Every column must have the same length; the
// first column fixes the row count.
func (t *Table) AddColumn(name string, values []float64) error {
	if name == "" || strings.ContainsAny(name, ",\n") {
		return fmt.Errorf("trace: invalid column name %q", name)
	}
	if _, dup := t.columns[name]; dup {
		return fmt.Errorf("trace: duplicate column %q", name)
	}
	if len(t.names) > 0 && len(values) != t.rows {
		return fmt.Errorf("trace: column %q has %d rows, table has %d", name, len(values), t.rows)
	}
	t.rows = len(values)
	t.names = append(t.names, name)
	col := make([]float64, len(values))
	copy(col, values)
	t.columns[name] = col
	return nil
}

// WriteCSV emits the table with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(t.names, ",") + "\n"); err != nil {
		return err
	}
	for row := 0; row < t.rows; row++ {
		for i, name := range t.names {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			s := strconv.FormatFloat(t.columns[name][row], 'g', -1, 64)
			if _, err := bw.WriteString(s); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MarkdownTable renders rows as a GitHub-flavoured markdown table with the
// given headers. Cell values are rendered with %g (numbers) or %v.
func MarkdownTable(w io.Writer, headers []string, rows [][]any) error {
	if len(headers) == 0 {
		return fmt.Errorf("trace: no headers")
	}
	var b strings.Builder
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(headers)) + "\n")
	for _, row := range rows {
		if len(row) != len(headers) {
			return fmt.Errorf("trace: row has %d cells, want %d", len(row), len(headers))
		}
		cells := make([]string, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case float64:
				cells[i] = strconv.FormatFloat(x, 'g', 4, 64)
			default:
				cells[i] = fmt.Sprintf("%v", v)
			}
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SortedKeys returns map keys in sorted order (report helper).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
