package numeric

import (
	"errors"
	"math"
)

// Welford is an online mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// ErrTooFewBatches is returned by ConfidenceInterval when fewer than two
// batches are available.
var ErrTooFewBatches = errors.New("numeric: need at least 2 observations for a confidence interval")

// ConfidenceInterval returns the half-width of the two-sided Student-t
// confidence interval at the given confidence level (e.g. 0.95) for the
// mean of the accumulated observations.
func (w *Welford) ConfidenceInterval(level float64) (halfWidth float64, err error) {
	if w.n < 2 {
		return 0, ErrTooFewBatches
	}
	t := StudentTQuantile(int(w.n-1), level)
	return t * w.StdErr(), nil
}

// StudentTQuantile returns the two-sided Student-t critical value with df
// degrees of freedom at the given confidence level. Levels 0.90, 0.95 and
// 0.99 are tabulated exactly for small df; other levels fall back to the
// normal approximation. df < 1 is treated as 1.
func StudentTQuantile(df int, level float64) float64 {
	if df < 1 {
		df = 1
	}
	var table []float64
	switch {
	case math.Abs(level-0.90) < 1e-9:
		table = t90
	case math.Abs(level-0.95) < 1e-9:
		table = t95
	case math.Abs(level-0.99) < 1e-9:
		table = t99
	default:
		return normalQuantileTwoSided(level)
	}
	if df <= len(table) {
		return table[df-1]
	}
	switch {
	case df <= 40:
		return table[29] + (table[len(table)-1]-table[29])*float64(df-30)/10
	default:
		return table[len(table)-1]
	}
}

// Two-sided critical values, df = 1..30 then df = 40 as the last entry.
var (
	t90 = []float64{
		6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
		1.684,
	}
	t95 = []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
		2.021,
	}
	t99 = []float64{
		63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
		2.704,
	}
)

// normalQuantileTwoSided returns z such that P(|Z| <= z) = level for a
// standard normal Z, via the Beasley-Springer-Moro rational approximation.
func normalQuantileTwoSided(level float64) float64 {
	p := (1 + level) / 2
	return normalQuantile(p)
}

// normalQuantile returns the p-quantile of the standard normal
// distribution (Moro's rational approximation, abs error < 3e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := ((a[3]*r+a[2])*r+a[1])*r + a[0]
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return y * num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		return -x
	}
	return x
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics, without mutating xs. An empty
// slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Only two order statistics enter the answer, so quickselect (O(n))
	// finds them instead of sorting the copy (O(n log n)). Order
	// statistics are exact values — the result is bit-identical to the
	// sorted implementation this replaced.
	work := make([]float64, len(xs))
	copy(work, xs)
	if p <= 0 {
		return minOf(work)
	}
	if p >= 1 {
		return maxOf(work)
	}
	pos := p * float64(len(work)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(work) {
		return maxOf(work)
	}
	a := quickselect(work, lo)
	// quickselect leaves work[lo+1:] holding exactly the ranks above lo,
	// so the next order statistic is their minimum.
	b := minOf(work[lo+1:])
	return a*(1-frac) + b*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// quickselect partially sorts xs in place so that xs[k] holds the k-th
// order statistic, everything before it is <= xs[k] and everything after
// is >= xs[k], and returns xs[k]. Median-of-three Hoare partitioning
// with an insertion-sort tail; deterministic for a given input.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi > lo {
		if hi-lo < 16 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			break
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k] // xs[j+1 .. i-1] all equal the pivot
		}
	}
	return xs[k]
}

// BatchMeans groups the series xs into nbatches equal-size batches
// (discarding any remainder at the tail) and returns a Welford accumulator
// over the batch means. This is the classic output-analysis technique for
// correlated simulation series.
func BatchMeans(xs []float64, nbatches int) (*Welford, error) {
	if nbatches < 2 {
		return nil, errors.New("numeric: BatchMeans needs at least 2 batches")
	}
	size := len(xs) / nbatches
	if size < 1 {
		return nil, errors.New("numeric: BatchMeans has fewer observations than batches")
	}
	w := &Welford{}
	for b := 0; b < nbatches; b++ {
		s := 0.0
		for i := b * size; i < (b+1)*size; i++ {
			s += xs[i]
		}
		w.Add(s / float64(size))
	}
	return w, nil
}
