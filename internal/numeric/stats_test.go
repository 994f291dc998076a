package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordKnown(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", w.Mean())
	}
	// Population variance is 4; sample variance = 4*8/7.
	if want := 32.0 / 7.0; !almostEqual(w.Variance(), want, 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), want)
	}
	if !almostEqual(w.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", w.StdDev())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	if _, err := w.ConfidenceInterval(0.95); err == nil {
		t.Error("expected error for CI with no data")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Error("single observation stats wrong")
	}
	if _, err := w.ConfidenceInterval(0.95); err == nil {
		t.Error("expected error for CI with one observation")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 100
		}
		var w Welford
		mean := 0.0
		for _, x := range xs {
			w.Add(x)
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Variance(), naiveVar, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTQuantileTable(t *testing.T) {
	cases := []struct {
		df    int
		level float64
		want  float64
	}{
		{1, 0.95, 12.706},
		{10, 0.95, 2.228},
		{30, 0.95, 2.042},
		{5, 0.90, 2.015},
		{2, 0.99, 9.925},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.df, c.level); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("t(%d, %v) = %v, want %v", c.df, c.level, got, c.want)
		}
	}
	// Large df converges to the last table entry.
	if got := StudentTQuantile(1000, 0.95); !almostEqual(got, 2.021, 1e-9) {
		t.Errorf("t(1000, 0.95) = %v", got)
	}
	// df < 1 clamps.
	if got := StudentTQuantile(0, 0.95); !almostEqual(got, 12.706, 1e-9) {
		t.Errorf("t(0, 0.95) = %v", got)
	}
	// Interpolated region 30 < df < 40 must be between endpoints.
	mid := StudentTQuantile(35, 0.95)
	if mid >= 2.042 || mid <= 2.021 {
		t.Errorf("t(35, 0.95) = %v not interpolated", mid)
	}
}

func TestStudentTQuantileNormalFallback(t *testing.T) {
	// An untabulated level uses the normal quantile; 0.954499... ~ 2 sigma.
	got := StudentTQuantile(100, 0.9544997)
	if !almostEqual(got, 2.0, 1e-3) {
		t.Errorf("normal fallback = %v, want ~2", got)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); !almostEqual(got, c.want, 1e-4) {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("extreme quantiles should be infinite")
	}
}

func TestBatchMeans(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7} // 3 batches of 2, tail dropped
	w, err := BatchMeans(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 3 {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), (1.5+3.5+5.5)/3, 1e-12) {
		t.Errorf("Mean = %v", w.Mean())
	}
	if _, err := BatchMeans(xs, 1); err == nil {
		t.Error("expected error for 1 batch")
	}
	if _, err := BatchMeans([]float64{1}, 2); err == nil {
		t.Error("expected error for too few observations")
	}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }
