package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	if err := tb.AddColumn("round", []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("homogeneity", []float64{5, 1, 0.5}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	names := tb.Names()
	if len(names) != 2 || names[0] != "round" {
		t.Fatalf("names = %v", names)
	}
	col := tb.Column("homogeneity")
	if col[2] != 0.5 {
		t.Fatalf("column = %v", col)
	}
	// Mutating the returned slice must not affect the table.
	col[0] = 99
	if tb.Column("homogeneity")[0] != 5 {
		t.Fatal("Column aliases internal storage")
	}
	if tb.Column("nope") != nil {
		t.Fatal("missing column should be nil")
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

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable()
	_ = tb.AddColumn("round", []float64{0, 1, 2})
	_ = tb.AddColumn("h", []float64{5.25, 0.61, 0.035})
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 3 {
		t.Fatalf("round-trip rows = %d", back.Rows())
	}
	for i, want := range []float64{5.25, 0.61, 0.035} {
		if got := back.Column("h")[i]; got != want {
			t.Fatalf("round-trip h[%d] = %v, want %v", i, got, want)
		}
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
		var buf strings.Builder
		if err := tb.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		ra, rb := back.Column("a"), back.Column("b")
		for i := range a {
			if !sameFloat(ra[i], a[i]) || !sameFloat(rb[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// sameFloat is exact equality except that any NaN matches any NaN:
// FormatFloat renders every NaN payload as "NaN" and ParseFloat returns
// the canonical quiet NaN, so NaN-ness survives the trip, payloads don't.
func sameFloat(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return got == want
}

func TestCSVRoundTripNonFinite(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0,
		math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8dead_beef0001)} // NaN with a payload
	tb := NewTable()
	if err := tb.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Column("v")
	for i, want := range vals {
		if !sameFloat(got[i], want) {
			t.Errorf("v[%d] round-tripped to %v (bits %#x), want %v", i, got[i], math.Float64bits(got[i]), want)
		}
	}
	// ±Inf and signed zero must survive bit-exactly.
	for _, i := range []int{1, 2, 3, 4} {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("v[%d] bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
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
