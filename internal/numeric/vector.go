// Package numeric provides the small dense linear-algebra, statistics and
// combinatorics kernels used by the queueing solvers and the simulator.
//
// The package is deliberately self-contained (standard library only): the
// solvers in internal/convolution and internal/mva need nothing beyond
// series convolution and population-lattice enumeration, so pulling in an
// external numerics dependency would be all cost and no benefit.
package numeric

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Zero sets every element to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Sum returns the sum of all elements.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Scale multiplies every element of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// MaxAbsDiff returns max_i |v[i]-w[i]|, used as an iteration convergence
// criterion. It panics if the lengths differ.
func (v Vector) MaxAbsDiff(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("numeric: MaxAbsDiff length mismatch %d vs %d", len(v), len(w)))
	}
	d := 0.0
	for i := range v {
		if a := math.Abs(v[i] - w[i]); a > d {
			d = a
		}
	}
	return d
}

// L2Diff returns the Euclidean distance between v and w (the APL WINDIM
// program's CRIT stopping value). It panics if the lengths differ.
func (v Vector) L2Diff(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("numeric: L2Diff length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}
