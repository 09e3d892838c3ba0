package trace

import (
	"strings"
	"testing"
)

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
