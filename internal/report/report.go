// Package report renders fixed-width text tables and ASCII charts for the
// benchmark harness — the tooling that prints the same rows and series the
// thesis's Tables 4.7/4.8/4.12 and Fig. 4.9 report.
package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/numeric"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends a row; cells beyond the header count are dropped, short
// rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Float formats x with the given number of decimals, rendering NaN and
// infinities readably.
func Float(x float64, decimals int) string {
	if math.IsNaN(x) {
		return "nan"
	}
	if math.IsInf(x, 1) {
		return "inf"
	}
	if math.IsInf(x, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(x, 'f', decimals, 64)
}

// Windows renders a window vector as the thesis prints it: "5 5" or
// "1 1 1 4".
func Windows(v numeric.IntVector) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, " ")
}

// Series is one named data series of an ASCII chart.
type Series struct {
	Name   string
	X, Y   []float64
	Marker byte
}

// Chart renders the series on a width x height character grid with a
// shared linear scale, plus a legend and axis extents — enough to show
// the rise-and-fall shape of Fig. 4.9 in terminal output.
func Chart(w io.Writer, title string, width, height int, series ...Series) error {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			any = true
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if !any {
		return fmt.Errorf("report: chart %q has no plottable points", title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = marker
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "y: %s .. %s\n", Float(minY, 1), Float(maxY, 1))
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "x: %s .. %s\n", Float(minX, 1), Float(maxX, 1))
	for _, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		fmt.Fprintf(&b, "  %c %s\n", marker, s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
