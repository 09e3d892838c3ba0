// Package trace holds the plain-data formats of the experiment pipeline:
// markdown tables for the analyzer's tables.md, and churn schedules with
// their generators and CSV parser.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

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
