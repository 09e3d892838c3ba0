package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	round := []float64{0, 1, 2}
	if err := tb.AddColumn("round", round); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("homogeneity", []float64{5, 1, 0.5}); err != nil {
		t.Fatal(err)
	}
	// Mutating the added slice must not affect the table.
	round[0] = 99
	header, rows := readCSV(t, tb)
	if len(header) != 2 || header[0] != "round" || header[1] != "homogeneity" {
		t.Fatalf("header = %v", header)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != 0 || rows[2][1] != 0.5 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestTableValidation(t *testing.T) {
	tb := NewTable()
	if err := tb.AddColumn("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := tb.AddColumn("a,b", nil); err == nil {
		t.Fatal("comma in name accepted")
	}
	if err := tb.AddColumn("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("x", []float64{1, 2}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := tb.AddColumn("y", []float64{1}); err == nil {
		t.Fatal("ragged column accepted")
	}
}

// readCSV writes tb with WriteCSV and parses the output back, field by
// field with strconv.ParseFloat, into the header and the rows.
func readCSV(t *testing.T, tb *Table) (header []string, rows [][]float64) {
	t.Helper()
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output does not end in a newline: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	header = strings.Split(lines[0], ",")
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			t.Fatalf("row %d has %d fields, header has %d", i, len(fields), len(header))
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("row %d field %d: %v", i, j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	return header, rows
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable()
	_ = tb.AddColumn("round", []float64{0, 1, 2})
	_ = tb.AddColumn("h", []float64{5.25, 0.61, 0.035})
	header, rows := readCSV(t, tb)
	if len(header) != 2 || header[0] != "round" || header[1] != "h" {
		t.Fatalf("round-trip header = %v", header)
	}
	if len(rows) != 3 {
		t.Fatalf("round-trip rows = %d", len(rows))
	}
	for i, want := range []float64{5.25, 0.61, 0.035} {
		if got := rows[i][1]; got != want {
			t.Fatalf("round-trip h[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestWriteCSVBytes pins the exact bytes: a header row in insertion
// order, then one row per index with the shortest 'g' rendering of each
// value.
func TestWriteCSVBytes(t *testing.T) {
	tb := NewTable()
	_ = tb.AddColumn("round", []float64{0, 1, 2, 3})
	_ = tb.AddColumn("h", []float64{5.25, 1e21, math.Inf(1), 1234567})
	_ = tb.AddColumn("d", []float64{-0.035, math.Copysign(0, -1), math.NaN(), 1e-7})
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "round,h,d\n" +
		"0,5.25,-0.035\n" +
		"1,1e+21,-0\n" +
		"2,+Inf,NaN\n" +
		"3,1.234567e+06,1e-07\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV wrote\n%q\nwant\n%q", got, want)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) != len(b) {
			if len(a) > len(b) {
				a = a[:len(b)]
			} else {
				b = b[:len(a)]
			}
		}
		tb := NewTable()
		if err := tb.AddColumn("a", a); err != nil {
			return false
		}
		if err := tb.AddColumn("b", b); err != nil {
			return false
		}
		header, rows := readCSV(t, tb)
		if len(header) != 2 || header[0] != "a" || header[1] != "b" || len(rows) != len(a) {
			return false
		}
		for i := range a {
			if math.Float64bits(rows[i][0]) != math.Float64bits(a[i]) ||
				math.Float64bits(rows[i][1]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTripNonFinite(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0,
		math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8dead_beef0001)} // NaN with a payload
	tb := NewTable()
	if err := tb.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	_, rows := readCSV(t, tb)
	if len(rows) != len(vals) {
		t.Fatalf("rows = %d, want %d", len(rows), len(vals))
	}
	// FormatFloat renders every NaN payload as "NaN" and ParseFloat
	// returns the canonical quiet NaN, so NaN-ness survives the trip,
	// payloads don't. Every other value survives bit-exactly.
	for i, want := range vals {
		got := rows[i][0]
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("v[%d] round-tripped to %v, want NaN", i, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("v[%d] bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestReadCSVSkipsComments(t *testing.T) {
	in := "# a comment\nx,y\n1,2\n# mid comment\n3,4\n"
	tb, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 || tb.Column("y")[1] != 4 {
		t.Fatalf("parsed %d rows: %v", tb.Rows(), tb.Column("y"))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"x,y\n1\n",        // ragged
		"x,y\n1,banana\n", // non-numeric
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded", in)
		}
	}
}

func TestReadCSVRejectsHeaderlessFile(t *testing.T) {
	// A file whose first row is fully numeric lost its header; parsing it
	// as column names would silently mislabel every column.
	_, err := ReadCSV(strings.NewReader("1,2\n3,4\n"))
	if err == nil || !strings.Contains(err.Error(), "missing header row") {
		t.Fatalf("headerless file not diagnosed: %v", err)
	}
	// "NaN" and "Inf" parse as floats too, so an all-special first row is
	// equally headerless.
	_, err = ReadCSV(strings.NewReader("# comment\nNaN,+Inf\n1,2\n"))
	if err == nil || !strings.Contains(err.Error(), "missing header row") {
		t.Fatalf("special-value first row not diagnosed: %v", err)
	}
	// A partially numeric header (a column legitimately named e.g. "4")
	// still parses.
	tb, err := ReadCSV(strings.NewReader("round,4\n1,2\n"))
	if err != nil || tb.Column("4") == nil {
		t.Fatalf("mixed header rejected: %v", err)
	}
}

func TestReadCSVRejectsDuplicateHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("x,y,x\n1,2,3\n"))
	if err == nil || !strings.Contains(err.Error(), "duplicate column") {
		t.Fatalf("duplicate header not rejected up front: %v", err)
	}
}

func TestMarkdownTable(t *testing.T) {
	var buf strings.Builder
	err := MarkdownTable(&buf, []string{"K", "reshaping"}, [][]any{
		{2, 5.0}, {4, 6.96}, {8, 9.08},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| K | reshaping |") || !strings.Contains(out, "| 4 | 6.96 |") {
		t.Fatalf("markdown:\n%s", out)
	}
	if err := MarkdownTable(&buf, nil, nil); err == nil {
		t.Fatal("empty headers accepted")
	}
	if err := MarkdownTable(&buf, []string{"a"}, [][]any{{1, 2}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}

// ReadCSV and the Rows/Column accessors have no production caller (no
// production path reads a table back); the TestReadCSV tests are their
// only tests.

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
