package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/numeric"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bee"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333") // short row padded
	if tbl.Rows() != 2 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	var b strings.Builder
	if _, err := tbl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(out, "333") || !strings.Contains(out, "bee") {
		t.Errorf("content missing:\n%s", out)
	}
	// Columns aligned: header and first row share the column-2 offset.
	hIdx := strings.Index(lines[1], "bee")
	rIdx := strings.Index(lines[3], "2")
	if hIdx != rIdx {
		t.Errorf("misaligned columns: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestFloat(t *testing.T) {
	if Float(3.14159, 2) != "3.14" {
		t.Errorf("Float = %q", Float(3.14159, 2))
	}
	if Float(math.NaN(), 2) != "nan" {
		t.Error("NaN formatting")
	}
	if Float(math.Inf(1), 0) != "inf" || Float(math.Inf(-1), 0) != "-inf" {
		t.Error("Inf formatting")
	}
}

func TestWindows(t *testing.T) {
	if got := Windows(numeric.IntVector{1, 1, 1, 4}); got != "1 1 1 4" {
		t.Errorf("Windows = %q", got)
	}
}

func TestChart(t *testing.T) {
	var b strings.Builder
	err := Chart(&b, "demo", 20, 6,
		Series{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}, Marker: 'u'},
		Series{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}, Marker: 'd'},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "u up") || !strings.Contains(out, "d down") {
		t.Errorf("chart output missing pieces:\n%s", out)
	}
	if strings.Count(out, "u") < 3 {
		t.Errorf("markers not plotted:\n%s", out)
	}
}

func TestChartRejectsEmpty(t *testing.T) {
	var b strings.Builder
	if err := Chart(&b, "empty", 20, 6, Series{Name: "nan", X: []float64{1}, Y: []float64{math.NaN()}}); err == nil {
		t.Fatal("expected error for unplottable chart")
	}
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }
