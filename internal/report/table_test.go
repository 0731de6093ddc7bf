package report

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("longer-name", "22")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Fatalf("header line %q", lines[1])
	}
	// Columns aligned: "value" column starts at the same offset in every
	// row.
	idx := strings.Index(lines[1], "value")
	if got := strings.Index(lines[3], "1"); got != idx {
		t.Fatalf("column misaligned: %d vs %d\n%s", got, idx, out)
	}
}

func TestTableRenderNoTitle(t *testing.T) {
	tb := &Table{Headers: []string{"a"}}
	tb.AddRow("x")
	if strings.HasPrefix(tb.Render(), "\n") {
		t.Fatal("empty title must not emit a blank line")
	}
}

// Regression: Render used to panic with "strings: negative Repeat count"
// when Headers was empty (separator width went to total-2 == -2).
func TestTableRenderEmptyHeaders(t *testing.T) {
	tb := &Table{Title: "headerless"}
	tb.AddRow("a", "bb")
	out := tb.Render()
	if !strings.Contains(out, "a") || !strings.Contains(out, "bb") {
		t.Fatalf("rows lost:\n%s", out)
	}

	empty := &Table{}
	if out := empty.Render(); strings.Contains(out, "-") {
		t.Fatalf("empty table should have an empty separator:\n%q", out)
	}
}

// Regression: Render's line() closure indexed widths[i] by the row's cell
// index, so a row wider than Headers panicked with index out of range.
func TestTableRenderRaggedRow(t *testing.T) {
	tb := &Table{Headers: []string{"only"}}
	tb.AddRow("x", "extra", "cells")
	out := tb.Render()
	for _, want := range []string{"only", "x", "extra", "cells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// The extra columns still align: the separator spans the widest row.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[1]) < len("x  extra  cells") {
		t.Fatalf("separator shorter than widest row:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		billions(34900000000):       "34.90 billion",
		millions(708900000):         "708.9 million",
		ms(1830 * time.Millisecond): "1830 ms",
		speedup(5.24):               "5.24x",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[string]string{
		fmtBytes(512):      "512 B",
		fmtBytes(2048):     "2.0 KiB",
		fmtBytes(29785000): "28.4 MiB",
		fmtBytes(6 << 30):  "6.0 GiB",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}
