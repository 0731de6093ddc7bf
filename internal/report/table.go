package report

import (
	"fmt"
	"strings"
	"time"
)

// Table is a simple aligned-column table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	// Size widths to the widest row, not just the headers: a ragged row
	// (more cells than headers) must not index past the width table, and
	// an empty header list must not produce a negative separator.
	cols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total -= 2; total < 0 {
		total = 0
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// billions formats a count as a "N.NN billion"-style figure.
func billions(v uint64) string {
	return fmt.Sprintf("%.2f billion", float64(v)/1e9)
}

// millions formats a count in millions.
func millions(v uint64) string {
	return fmt.Sprintf("%.1f million", float64(v)/1e6)
}

// ms formats a duration in integer milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%d ms", d.Milliseconds())
}

// speedup formats a ratio as "N.NNx".
func speedup(v float64) string {
	return fmt.Sprintf("%.2fx", v)
}

// fmtBytes formats a byte count with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
