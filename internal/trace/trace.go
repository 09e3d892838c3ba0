// Package trace persists and renders experiment results: CSV emission and
// parsing for per-round metric series, gnuplot scripts that redraw the
// paper's figures from those CSVs, and markdown tables for reports such as
// EXPERIMENTS.md. The cmd/ tools print CSV directly; this package is the
// library form used when results need to be post-processed or re-plotted.
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

// Names returns the column names in insertion order.
func (t *Table) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Column returns a copy of the named column, or nil when absent.
func (t *Table) Column(name string) []float64 {
	col, ok := t.columns[name]
	if !ok {
		return nil
	}
	out := make([]float64, len(col))
	copy(out, col)
	return out
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

// ReadCSV parses a table previously written by WriteCSV (comment lines
// starting with '#' are skipped). The first non-comment row must be a
// header: a fully numeric first row is rejected with a "missing header
// row?" diagnosis instead of silently becoming column names, and
// duplicate header names fail immediately rather than after the whole
// file has been parsed.
func ReadCSV(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var names []string
	var cols [][]float64
	line := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		line++
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if names == nil {
			numeric := 0
			for _, f := range fields {
				if _, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err == nil {
					numeric++
				}
			}
			if numeric == len(fields) {
				return nil, fmt.Errorf("trace: line %d: header row %q is fully numeric — missing header row?", line, text)
			}
			seen := make(map[string]bool, len(fields))
			for i, n := range fields {
				if seen[n] {
					return nil, fmt.Errorf("trace: line %d: duplicate column %q in header (field %d)", line, n, i+1)
				}
				seen[n] = true
			}
			names = fields
			cols = make([][]float64, len(names))
			continue
		}
		if len(fields) != len(names) {
			return nil, fmt.Errorf("trace: line %d has %d fields, header has %d", line, len(fields), len(names))
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %w", line, i, err)
			}
			cols[i] = append(cols[i], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if names == nil {
		return nil, fmt.Errorf("trace: empty input")
	}
	out := NewTable()
	for i, name := range names {
		if err := out.AddColumn(name, cols[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
