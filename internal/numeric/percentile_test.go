package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentileKnown(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 9 {
		t.Errorf("P100 = %v", got)
	}
	// Median of sorted [1 1 2 3 4 5 6 9]: between 3 and 4.
	if got := Percentile(xs, 0.5); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("P50 = %v", got)
	}
	// Input not mutated.
	if xs[0] != 3 || xs[5] != 9 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileEdge(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := Percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single = %v", got)
	}
	if got := Percentile([]float64{1, 2}, -0.5); got != 1 {
		t.Errorf("clamped low = %v", got)
	}
	if got := Percentile([]float64{1, 2}, 2); got != 2 {
		t.Errorf("clamped high = %v", got)
	}
}

// Properties: monotone in p, bounded by min/max, exact on uniform grids.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []int16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		p := float64(pRaw) / 255
		v := Percentile(xs, p)
		if v < lo-1e-9 || v > hi+1e-9 {
			return false
		}
		// Monotonicity against a second point.
		p2 := p / 2
		return Percentile(xs, p2) <= v+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortFloat64sLarge(t *testing.T) {
	// Exercise the quicksort path (n >= 16) with adversarial patterns.
	patterns := [][]float64{}
	asc := make([]float64, 100)
	desc := make([]float64, 100)
	same := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i)
		desc[i] = float64(100 - i)
		same[i] = 42
	}
	patterns = append(patterns, asc, desc, same)
	for pi, xs := range patterns {
		cp := make([]float64, len(xs))
		copy(cp, xs)
		sortFloat64s(cp)
		for i := 1; i < len(cp); i++ {
			if cp[i] < cp[i-1] {
				t.Fatalf("pattern %d not sorted at %d", pi, i)
			}
		}
	}
}

// sortFloat64s is an in-place quicksort with insertion-sort cutoff
// (avoiding the sort package's interface overhead in the simulator's
// result path is immaterial; this simply keeps the package stdlib-free of
// sort.Slice allocations).
func sortFloat64s(xs []float64) {
	if len(xs) < 16 {
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return
	}
	pivot := xs[len(xs)/2]
	left, right := 0, len(xs)-1
	for left <= right {
		for xs[left] < pivot {
			left++
		}
		for xs[right] > pivot {
			right--
		}
		if left <= right {
			xs[left], xs[right] = xs[right], xs[left]
			left++
			right--
		}
	}
	sortFloat64s(xs[:right+1])
	sortFloat64s(xs[left:])
}
