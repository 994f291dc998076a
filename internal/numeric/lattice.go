package numeric

import "fmt"

// IntVector is an integer lattice point, used for multichain population
// vectors (window settings, chain populations).
type IntVector []int

// NewIntVector returns a zeroed integer vector of length n.
func NewIntVector(n int) IntVector { return make(IntVector, n) }

// Clone returns an independent copy of v.
func (v IntVector) Clone() IntVector {
	w := make(IntVector, len(v))
	copy(w, v)
	return w
}

// Sum returns the sum of all elements.
func (v IntVector) Sum() int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Equal reports whether v and w hold the same elements.
func (v IntVector) Equal(w IntVector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// AllNonNegative reports whether every element is >= 0.
func (v IntVector) AllNonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// Key returns a compact unique string key for v, suitable as a map key for
// memoisation (the APL WINDIM program kept the analogous XCMP table).
func (v IntVector) Key() string {
	b := make([]byte, 0, len(v)*3)
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, x)
	}
	return string(b)
}

func appendInt(b []byte, x int) []byte {
	if x < 0 {
		b = append(b, '-')
		x = -x
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
		if x == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

func (v IntVector) String() string { return "(" + v.Key() + ")" }

// LatticeSize returns the number of lattice points dominated by bound
// (inclusive), i.e. prod_i (bound[i]+1). It returns an error if any bound
// is negative or if the product overflows a practical budget; the exact
// multichain MVA recursion walks this lattice and must refuse absurd
// requests rather than hang.
func LatticeSize(bound IntVector, budget int) (int, error) {
	size := 1
	for i, b := range bound {
		if b < 0 {
			return 0, fmt.Errorf("numeric: negative lattice bound %d at index %d", b, i)
		}
		size *= b + 1
		if size > budget || size < 0 {
			return 0, fmt.Errorf("numeric: lattice of %v exceeds budget %d points", bound, budget)
		}
	}
	return size, nil
}

// LatticeIndex maps the point p (0 <= p <= bound elementwise) to its
// mixed-radix rank in the lattice enumeration order used by LatticeWalk.
func LatticeIndex(p, bound IntVector) int {
	idx := 0
	for i := range p {
		idx = idx*(bound[i]+1) + p[i]
	}
	return idx
}

// LatticeWalk visits every lattice point 0 <= p <= bound in an order where
// every point is visited after all points it dominates (i.e. p-e_k is
// visited before p). The same IntVector is reused across calls; callers
// must Clone it if they retain it.
func LatticeWalk(bound IntVector, visit func(p IntVector)) {
	LatticeWalkUntil(bound, func(p IntVector) bool {
		visit(p)
		return true
	})
}

// LatticeWalkUntil walks the lattice in LatticeWalk's order but stops as
// soon as visit returns false, so callers that hit an error mid-walk do
// not pay for the rest of the box. The same IntVector is reused across
// calls; callers must Clone it if they retain it.
func LatticeWalkUntil(bound IntVector, visit func(p IntVector) bool) {
	p := NewIntVector(len(bound))
	for {
		if !visit(p) {
			return
		}
		// Odometer increment (last index fastest). Lexicographic order
		// dominates: incrementing any digit moves strictly upward in the
		// dominance-compatible order because all lower digits reset to 0.
		i := len(p) - 1
		for i >= 0 {
			if p[i] < bound[i] {
				p[i]++
				break
			}
			p[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// CompositionsCount returns the number of ways to place total
// indistinguishable customers into bins queues, C(total+bins-1, bins-1),
// saturating at a large sentinel to avoid overflow.
func CompositionsCount(total, bins int) int {
	if bins <= 0 {
		if total == 0 {
			return 1
		}
		return 0
	}
	// Multiplicative binomial, with overflow saturation.
	const sentinel = int(1) << 62
	n := total + bins - 1
	k := bins - 1
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		// res = res * (n-k+i) / i, exact at every step.
		res = res * (n - k + i) / i
		if res < 0 || res > sentinel {
			return sentinel
		}
	}
	return res
}

// Compositions visits every way to write total as an ordered sum of bins
// non-negative integers. The slice passed to visit is reused; clone to
// retain. Used by the CTMC state-space generator.
func Compositions(total, bins int, visit func(c IntVector)) {
	if bins == 0 {
		if total == 0 {
			visit(IntVector{})
		}
		return
	}
	c := NewIntVector(bins)
	var rec func(rem, i int)
	rec = func(rem, i int) {
		if i == bins-1 {
			c[i] = rem
			visit(c)
			return
		}
		for v := 0; v <= rem; v++ {
			c[i] = v
			rec(rem-v, i+1)
		}
	}
	rec(total, 0)
}
