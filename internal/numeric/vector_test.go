package numeric

import (
	"fmt"
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestVectorSumDot(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestVectorScaleAdd(t *testing.T) {
	v := Vector{1, 2}.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale = %v", v)
	}
	v.Add(Vector{1, 1})
	if v[0] != 4 || v[1] != 7 {
		t.Errorf("Add = %v", v)
	}
}

func TestVectorMax(t *testing.T) {
	v := Vector{3, 9, 2}
	best, at := v.Max()
	if best != 9 || at != 1 {
		t.Errorf("Max = (%v,%v), want (9,1)", best, at)
	}
	var empty Vector
	best, at = empty.Max()
	if !math.IsInf(best, -1) || at != -1 {
		t.Errorf("empty Max = (%v,%v)", best, at)
	}
}

func TestVectorDiffs(t *testing.T) {
	v := Vector{0, 0}
	w := Vector{3, 4}
	if got := v.MaxAbsDiff(w); got != 4 {
		t.Errorf("MaxAbsDiff = %v, want 4", got)
	}
	if got := v.L2Diff(w); !almostEqual(got, 5, 1e-12) {
		t.Errorf("L2Diff = %v, want 5", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases storage")
	}
}

// Add adds w to v in place and returns v.
// It panics if the lengths differ.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("numeric: Add length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Max returns the maximum element and its index. For an empty vector it
// returns (-Inf, -1).
func (v Vector) Max() (float64, int) {
	best, at := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, at = x, i
		}
	}
	return best, at
}
