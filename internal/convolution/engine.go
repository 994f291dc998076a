// The incremental convolution engine: one shared normalisation-constant
// lattice per search instead of one full solve per candidate.
//
// A dimensioning search evaluates many population (window) vectors H that
// all live inside one bounding box Hmax. The convolution recursion already
// computes g at *every* lattice point 0 <= i <= Hmax on its way to
// g(Hmax), so the engine builds the per-station partial convolutions once
// at the box and answers EvalAt(H) for any H <= Hmax from cached slices:
//
//   - throughputs are the ratios beta_w * g(H-e_w)/g(H) (eq. 3.31),
//   - fixed-rate queue lengths read the cached g_(i+) array (eq. 3.36),
//   - marginals and queue-dependent queue lengths read the cached
//     g_(i-) arrays (eq. 3.24a) and capacity coefficients (eq. 3.27).
//
// The per-station g_(i-) arrays come from the classic prefix x suffix
// trick: prefix[k] convolves stations 0..k-1, suffix[k] convolves
// stations k..n-1, and g_(i-) = prefix[i] (*) suffix[i+1] — each station
// is convolved exactly once per direction instead of n-1 times.
//
// When a search grows the box along one chain (Hooke–Jeeves perturbs one
// coordinate at a time) the lattice is extended incrementally: retained
// arrays are remapped to the new strides and only the new region is
// computed. Station sweeps can be parallelised across hyperplanes of
// constant total population; every point's value is a rounding-identical
// expression of fully-computed earlier planes, so parallel results are
// bit-identical to serial ones.
package convolution

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// DefaultEngineBudget caps the bounding-box lattice of an Engine when
// EngineOptions.Budget is zero. Engines keep Theta(stations) lattice-sized
// arrays alive, so the default is far below Solve's LatticeBudget.
const DefaultEngineBudget = 1 << 20

// hoistFloatBudget bounds the float64s the prefix/suffix reorganisation of
// Solve may retain; beyond it Solve reverts to the historical
// constant-memory per-station path.
const hoistFloatBudget = 1 << 26

// hoistFloats is the worst-case float64 count of a fully materialised
// lattice: prefix and suffix chains (n+1 each), capacity coefficients,
// g_(i+), g_(i-) (n each), plus the plane index.
func hoistFloats(n, size int) int { return (5*n + 3) * size }

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers is the number of goroutines used for lattice sweeps when
	// building or extending the box. Values <= 1 run serially; parallel
	// sweeps are bit-identical to serial ones.
	Workers int
	// Budget caps the bounding-box lattice in points (not bytes).
	// Zero means DefaultEngineBudget.
	Budget int
	// MaxBox, when non-nil, is a hard per-chain ceiling on the bounding
	// box: construction beyond it fails and queries beyond it return
	// ErrBoxBounded instead of growing the lattice. A slab worker of the
	// sharded exhaustive search sets it to its slab corner so that no
	// query — however buggy the caller — can ever grow the lattice past
	// the memory the slab was budgeted for. The check is point-local (a
	// function of the queried population alone, never of growth history),
	// preserving the engine's determinism contract.
	MaxBox numeric.IntVector
}

// ErrBoxBounded is returned for queries beyond EngineOptions.MaxBox: the
// caller asked the engine to grow past the hard slab bound it was
// constructed with.
var ErrBoxBounded = errors.New("convolution: query exceeds the engine's hard box bound")

// Means is the cheap evaluation product of Engine.MeansAt: chain
// throughputs and per-station per-chain mean queue lengths, without the
// marginal distributions of a full Solution.
type Means struct {
	// Throughput[w] is chain w's throughput per unit visit ratio.
	Throughput numeric.Vector
	// QueueLen.At(i, w) is the mean number of chain-w customers at
	// station i.
	QueueLen *numeric.Matrix
	// G and GShift are the normalisation constant at the evaluated
	// population vector, as in Solution.
	G      float64
	GShift int
}

// Engine answers repeated exact evaluations of one network at many
// population vectors by caching the convolution lattice of a bounding
// box. It is safe for concurrent use: evaluations inside the current box
// proceed under a read lock, while box growth and lazy materialisation
// serialise under a write lock. The cache is rebuildable state derived
// from the network alone — it must never be serialised into checkpoints.
type Engine struct {
	mu   sync.RWMutex
	net  *qnet.Network // validated, effective-closed
	opts EngineOptions
	lat  *lattice
}

// NewEngine validates net and builds the convolution lattice at the
// bounding box hmax (one entry per chain). Chain populations recorded in
// net are ignored; EvalAt supplies the population vector per query.
func NewEngine(net *qnet.Network, hmax numeric.IntVector, opts EngineOptions) (*Engine, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	net = net.EffectiveClosed()
	if len(hmax) != net.R() {
		return nil, fmt.Errorf("convolution: box has %d chains, network has %d", len(hmax), net.R())
	}
	if opts.Budget <= 0 {
		opts.Budget = DefaultEngineBudget
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxBox != nil {
		if len(opts.MaxBox) != net.R() {
			return nil, fmt.Errorf("convolution: MaxBox has %d chains, network has %d", len(opts.MaxBox), net.R())
		}
		for w, hw := range hmax {
			if hw > opts.MaxBox[w] {
				return nil, fmt.Errorf("%w: initial box %v exceeds MaxBox %v", ErrBoxBounded, hmax, opts.MaxBox)
			}
		}
	}
	e := &Engine{net: net, opts: opts}
	lat, err := e.buildAt(hmax.Clone())
	if err != nil {
		return nil, err
	}
	e.lat = lat
	return e, nil
}

func (e *Engine) buildAt(h numeric.IntVector) (*lattice, error) {
	s, err := newSolverAt(e.net, h, e.opts.Budget)
	if err != nil {
		return nil, err
	}
	return buildLattice(s, e.opts.Workers)
}

// Hmax returns a copy of the current bounding box.
func (e *Engine) Hmax() numeric.IntVector {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lat.s.h.Clone()
}

// Size returns the number of lattice points in the current box.
func (e *Engine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lat.s.size
}

// MemoryBytes reports the engine's retained lattice memory: every
// materialised float array (prefix/suffix chains, capacity coefficients,
// doubled and leave-one-out convolutions) plus the plane index and the
// neighbour mask. Callers budgeting a shared oracle cache
// (core.OracleCache) poll this after queries, since EnsureBox grows the
// footprint lazily.
func (e *Engine) MemoryBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, plane := range e.lat.planes {
		n += int64(len(plane)) * 4
	}
	n += int64(len(e.lat.mask)) * 4
	for _, group := range [][]scaled{e.lat.prefix, e.lat.suffix, e.lat.c, e.lat.gPlus, e.lat.gMinus} {
		for i := range group {
			n += int64(len(group[i].v)) * 8
		}
	}
	return n
}

// EnsureBox grows the bounding box to cover h (elementwise maximum with
// the current box). Growth is incremental: retained arrays are remapped
// and only the new lattice region is computed. On any numerical trouble
// it falls back to a fresh build at the grown box; the engine keeps its
// previous consistent state if that fails too.
func (e *Engine) EnsureBox(h numeric.IntVector) error {
	if err := e.checkQuery(h); err != nil {
		return err
	}
	e.mu.RLock()
	covered := e.lat.covers(h)
	e.mu.RUnlock()
	if covered {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.growLocked(h)
}

func (e *Engine) growLocked(h numeric.IntVector) error {
	if e.lat.covers(h) {
		return nil
	}
	grown := e.lat.s.h.Clone()
	for w, hw := range h {
		if hw > grown[w] {
			grown[w] = hw
		}
	}
	s, err := newSolverAt(e.net, grown, e.opts.Budget)
	if err != nil {
		return err
	}
	lat, err := e.lat.extendTo(s, e.opts.Workers)
	if err != nil {
		// Incremental extension saw values the old scale cannot
		// represent (a fresh build rescales mid-chain); rebuild.
		lat, err = buildLattice(s, e.opts.Workers)
		if err != nil {
			return err
		}
	}
	e.lat = lat
	return nil
}

func (e *Engine) checkQuery(h numeric.IntVector) error {
	if len(h) != e.net.R() {
		return fmt.Errorf("convolution: query has %d chains, network has %d", len(h), e.net.R())
	}
	if !h.AllNonNegative() {
		return fmt.Errorf("convolution: negative population in query %v", h)
	}
	if e.opts.MaxBox != nil {
		for w, hw := range h {
			if hw > e.opts.MaxBox[w] {
				return fmt.Errorf("%w: population %v exceeds MaxBox %v", ErrBoxBounded, h, e.opts.MaxBox)
			}
		}
	}
	return nil
}

// EvalAt returns the full exact solution (throughputs, queue lengths,
// utilisations, marginals) at population vector h, growing the box if h
// lies outside it. Inside an already-built box the per-chain quantities
// are slice reads; marginals walk the sub-lattice dominated by h but
// rebuild nothing.
func (e *Engine) EvalAt(h numeric.IntVector) (*Solution, error) {
	if err := e.checkQuery(h); err != nil {
		return nil, err
	}
	e.mu.RLock()
	if e.lat.covers(h) && e.lat.gMinusReady() {
		sol, err := e.lat.evalAt(h)
		e.mu.RUnlock()
		return sol, err
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.growLocked(h); err != nil {
		return nil, err
	}
	if err := e.lat.ensureGMinus(-1); err != nil {
		return nil, err
	}
	return e.lat.evalAt(h)
}

// MeansAt returns throughputs and mean queue lengths at h. For networks
// of fixed-rate and IS stations (every window-dimensioning model) this is
// pure slice reads inside a built box; queue-dependent stations add a
// sub-lattice walk over cached arrays.
func (e *Engine) MeansAt(h numeric.IntVector) (*Means, error) {
	if err := e.checkQuery(h); err != nil {
		return nil, err
	}
	e.mu.RLock()
	if e.lat.covers(h) {
		m, err := e.lat.meansAt(h)
		e.mu.RUnlock()
		return m, err
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.growLocked(h); err != nil {
		return nil, err
	}
	return e.lat.meansAt(h)
}

// scaled is a lattice-sized array with a power-of-two exponent: true
// values are v[i] * 2^shift. All rescaling is exact, so shifts never
// perturb ratios.
type scaled struct {
	v     []float64
	shift int
}

// rescale renormalises the array if its peak drifted out of range.
func (a *scaled) rescale() error {
	exp, err := rescalePow2(a.v)
	if err != nil {
		return err
	}
	a.shift += exp
	return nil
}

// lattice is the cached convolution state of one bounding box.
type lattice struct {
	s       *solver
	workers int       // goroutines for sweeps run after construction
	planes  [][]int32 // lattice indices grouped by total population
	// mask[idx] has bit k set iff the point's population on the k-th
	// active chain (h_w > 0, ascending w) is positive: the e_w neighbours
	// the fixed-rate recursion reads, without decoding idx. Plane indices
	// are int32, so a lattice has fewer than 2^31 points and hence fewer
	// than 31 active chains.
	mask []uint32
	// prefix[k] convolves stations 0..k-1 (prefix[0] is the identity);
	// prefix[n] is the full g array. suffix[k] convolves stations
	// k..n-1. cShift[k] accumulates the capacity-coefficient shifts of
	// stations 0..k-1 into prefix[k].shift (and symmetrically for
	// suffix), so shifts compare directly across arrays. Only g_(i-)
	// reads the suffix chain, so it is materialised with the first of
	// them (ensureSuffix): MeansAt over fixed-rate and IS stations never
	// needs it.
	prefix []scaled
	suffix []scaled
	// c[i] holds station i's capacity coefficients (nil for fixed-rate
	// stations), stored at a single power-of-two scale; every point is
	// evaluated by the point-local rule of capacityAt, so extension fills
	// new points bit-identically to a fresh build at the same scale.
	c []scaled
	// gPlus[i] is g with fixed-rate station i convolved twice
	// (eq. 3.36), nil for other stations. Built eagerly: every MeansAt
	// needs it.
	gPlus []scaled
	// gMinus[i] is the convolution of all stations except i
	// (eq. 3.24a). Materialised eagerly for queue-dependent stations
	// (MeansAt needs those) and lazily for the rest (only full EvalAt
	// marginals read them).
	gMinus []scaled
}

func (l *lattice) covers(h numeric.IntVector) bool {
	for w, hw := range h {
		if hw > l.s.h[w] {
			return false
		}
	}
	return true
}

func (l *lattice) gMinusReady() bool {
	for i := range l.gMinus {
		if l.gMinus[i].v == nil {
			return false
		}
	}
	return true
}

// general reports whether station i needs explicit capacity coefficients
// (IS or queue-dependent) rather than the fixed-rate recursion.
func (l *lattice) general(i int) bool {
	st := &l.s.net.Stations[i]
	return st.Kind == qnet.IS || st.IsQueueDependent()
}

// buildPlanes groups lattice indices by total population |p|; within a
// plane, indices appear in LatticeWalk order. It also returns every
// point's neighbour mask (see lattice.mask).
func buildPlanes(s *solver) ([][]int32, []uint32) {
	planes := make([][]int32, s.h.Sum()+1)
	mask := make([]uint32, s.size)
	idx := int32(0)
	numeric.LatticeWalk(s.h, func(p numeric.IntVector) {
		k := p.Sum()
		planes[k] = append(planes[k], idx)
		var m uint32
		bit := 0
		for w, hw := range s.h {
			if hw == 0 {
				continue
			}
			if p[w] > 0 {
				m |= 1 << bit
			}
			bit++
		}
		mask[idx] = m
		idx++
	})
	return planes, mask
}

// buildLattice constructs the full cached state at the solver's box.
func buildLattice(s *solver, workers int) (*lattice, error) {
	if workers < 1 {
		workers = 1
	}
	n := s.n
	planes, mask := buildPlanes(s)
	l := &lattice{
		s:       s,
		workers: workers,
		planes:  planes,
		mask:    mask,
		prefix:  make([]scaled, n+1),
		suffix:  make([]scaled, n+1),
		c:       make([]scaled, n),
		gPlus:   make([]scaled, n),
		gMinus:  make([]scaled, n),
	}
	for i := 0; i < n; i++ {
		if l.general(i) {
			cv, cShift := s.capacityCoefficients(i)
			l.c[i] = scaled{v: cv, shift: cShift}
		}
	}
	l.prefix[0] = scaled{v: s.identity()}
	for i := 0; i < n; i++ {
		out, err := l.applyStation(i, l.prefix[i], workers)
		if err != nil {
			return nil, fmt.Errorf("prefix after station %d: %w", i, err)
		}
		l.prefix[i+1] = out
	}
	for i := 0; i < n; i++ {
		if !l.general(i) {
			out := scaled{v: make([]float64, s.size), shift: l.prefix[n].shift}
			l.fixedRateInto(i, l.prefix[n].v, out.v, 1, l.planes, workers)
			if err := out.rescale(); err != nil {
				return nil, fmt.Errorf("g+ of station %d: %w", i, err)
			}
			l.gPlus[i] = out
		}
		if st := &s.net.Stations[i]; st.Kind != qnet.IS && st.IsQueueDependent() {
			if err := l.ensureGMinus(i); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// ensureGMinus materialises g_(i-) for station i (or, when i < 0, for all
// stations) as prefix[i] (*) suffix[i+1]. Must be called with the engine
// write lock held (buildLattice and extendTo run under it too).
func (l *lattice) ensureGMinus(i int) error {
	if i < 0 {
		for j := 0; j < l.s.n; j++ {
			if err := l.ensureGMinus(j); err != nil {
				return err
			}
		}
		return nil
	}
	if l.gMinus[i].v != nil {
		return nil
	}
	if err := l.ensureSuffix(); err != nil {
		return err
	}
	out, err := l.combine(l.prefix[i], l.suffix[i+1], 1)
	if err != nil {
		return fmt.Errorf("g- of station %d: %w", i, err)
	}
	l.gMinus[i] = out
	return nil
}

// ensureSuffix materialises the suffix chain; same locking as
// ensureGMinus. On failure the chain stays unmaterialised.
func (l *lattice) ensureSuffix() error {
	n := l.s.n
	if l.suffix[0].v != nil {
		return nil
	}
	suffix := make([]scaled, n+1)
	suffix[n] = scaled{v: l.s.identity()}
	for i := n - 1; i >= 0; i-- {
		out, err := l.applyStation(i, suffix[i+1], l.workers)
		if err != nil {
			return fmt.Errorf("suffix after station %d: %w", i, err)
		}
		suffix[i] = out
	}
	l.suffix = suffix
	return nil
}

// applyStation convolves station i into g, returning a rescaled result
// whose shift accumulates g's shift, the station's capacity-coefficient
// shift, and any stability rescale.
func (l *lattice) applyStation(i int, g scaled, workers int) (scaled, error) {
	var out scaled
	if !l.general(i) {
		out = scaled{v: make([]float64, l.s.size), shift: g.shift}
		l.fixedRateInto(i, g.v, out.v, 1, l.planes, workers)
	} else {
		var err error
		out, err = l.combine(l.c[i], g, workers)
		if err != nil {
			return scaled{}, err
		}
	}
	if err := out.rescale(); err != nil {
		return scaled{}, err
	}
	return out, nil
}

// fixedRateInto applies eq. 3.30 on the listed planes:
// out(p) = factor*in(p) + sum_w rho_iw * out(p - e_w), sweeping
// hyperplanes of constant total population in ascending order — every
// dependency out(p - e_w) lies one plane below (or outside the swept
// region, where out must already hold valid values), so planes may be
// split across workers with bit-identical results. factor is an exact
// power of two reconciling input and output shifts. The neighbour mask
// selects the terms, visited in ascending chain order.
func (l *lattice) fixedRateInto(i int, in, out []float64, factor float64, planes [][]int32, workers int) {
	s := l.s
	// Station i's demands and strides on the active chains; chains it
	// does not visit never contribute, so their bits are masked off.
	var rho [32]float64
	var stride [32]int
	var live uint32
	k := 0
	for w := 0; w < s.w; w++ {
		if s.h[w] == 0 {
			continue
		}
		if r := s.rho.At(i, w); r != 0 {
			rho[k], stride[k] = r, s.strideCache[w]
			live |= 1 << k
		}
		k++
	}
	for _, plane := range planes {
		sweepChunks(plane, workers, func(chunk []int32) {
			for _, idx := range chunk {
				acc := in[idx] * factor
				for m := l.mask[idx] & live; m != 0; m &= m - 1 {
					b := bits.TrailingZeros32(m)
					acc += rho[b] * out[int(idx)-stride[b]]
				}
				out[idx] = acc
			}
		})
	}
}

// point decodes a lattice index into its population vector (the inverse
// of numeric.LatticeIndex for the current box).
func (l *lattice) point(idx int32, p numeric.IntVector) {
	s := l.s
	rest := int(idx)
	for w := s.w - 1; w >= 0; w-- {
		d := s.h[w] + 1
		p[w] = rest % d
		rest /= d
	}
}

// combine computes the truncated convolution a (*) b over the whole box
// (or only newPlanes points via combineInto), pre-scaling to keep the
// products of two near-limit arrays inside the float64 range. The
// pre-scale is an exact power of two folded into the result shift, so it
// never changes a stored mantissa.
func (l *lattice) combine(a, b scaled, workers int) (scaled, error) {
	out := scaled{v: make([]float64, l.s.size), shift: a.shift + b.shift}
	if err := l.combineInto(&out, a, b, nil, workers); err != nil {
		return scaled{}, err
	}
	if err := out.rescale(); err != nil {
		return scaled{}, err
	}
	return out, nil
}

// combineInto fills out (at out.shift) with a (*) b on newPlanes (nil =
// every plane).
func (l *lattice) combineInto(out *scaled, a, b scaled, newPlanes [][]int32, workers int) error {
	s := l.s
	av, bv := a.v, b.v
	// Pre-scale so peak(a)*peak(b) stays finite: products of two arrays
	// near the 2^±512 rescale limit would overflow before the result
	// rescale could fire.
	ea := peakExp(av)
	eb := peakExp(bv)
	pre := 0
	if d := ea + eb; d > rescaleExponentLimit || d < -rescaleExponentLimit {
		pre = -d
		scaledB := make([]float64, len(bv))
		for k, v := range bv {
			scaledB[k] = math.Ldexp(v, pre)
		}
		bv = scaledB
	}
	// Residual shift between the source product scale and out's stored
	// scale, applied as an exact factor per point.
	factor := math.Ldexp(1, a.shift+b.shift-pre-out.shift)
	planes := newPlanes
	if planes == nil {
		planes = l.planes
	}
	for _, plane := range planes {
		sweepChunks(plane, workers, func(chunk []int32) {
			p := numeric.NewIntVector(s.w)
			for _, idx := range chunk {
				rest := int(idx)
				for w := s.w - 1; w >= 0; w-- {
					d := s.h[w] + 1
					p[w] = rest % d
					rest /= d
				}
				acc := 0.0
				numeric.LatticeWalk(p, func(j numeric.IntVector) {
					jIdx := numeric.LatticeIndex(j, s.h)
					if aj := av[jIdx]; aj != 0 {
						diffIdx := 0
						for w := 0; w < s.w; w++ {
							diffIdx = diffIdx*(s.h[w]+1) + (p[w] - j[w])
						}
						acc += aj * bv[diffIdx]
					}
				})
				out.v[idx] = acc * factor
			}
		})
	}
	return nil
}

// peakExp returns the binary exponent of the largest magnitude in v
// (0 for an all-zero array).
func peakExp(v []float64) int {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 0
	}
	_, exp := math.Frexp(maxAbs)
	return exp
}

// sweepChunks splits idxs across workers goroutines; each worker writes
// disjoint output indices, so the parallel sweep is race-free and
// bit-identical to the serial one.
func sweepChunks(idxs []int32, workers int, f func(chunk []int32)) {
	if workers <= 1 || len(idxs) < 2*workers {
		f(idxs)
		return
	}
	var wg sync.WaitGroup
	chunk := (len(idxs) + workers - 1) / workers
	for lo := 0; lo < len(idxs); lo += chunk {
		hi := lo + chunk
		if hi > len(idxs) {
			hi = len(idxs)
		}
		wg.Add(1)
		go func(part []int32) {
			defer wg.Done()
			f(part)
		}(idxs[lo:hi])
	}
	wg.Wait()
}

// evalAt is the full-solution read path; callers hold at least a read
// lock and have ensured the box covers h and every g_(i-) exists.
func (l *lattice) evalAt(h numeric.IntVector) (*Solution, error) {
	if err := l.ensureGMinus(-1); err != nil {
		return nil, err
	}
	s := l.s
	gAll := &l.prefix[s.n]
	topIdx := numeric.LatticeIndex(h, s.h)
	gH := gAll.v[topIdx]
	if gH <= 0 || math.IsNaN(gH) || math.IsInf(gH, 0) {
		return nil, fmt.Errorf("%w: degenerate normalisation constant %v (shift 2^%d)", ErrUnstable, gH, gAll.shift)
	}
	sol := &Solution{
		G:           gH,
		GShift:      gAll.shift,
		Throughput:  numeric.NewVector(s.w),
		QueueLen:    numeric.NewMatrix(s.n, s.w),
		Utilization: numeric.NewVector(s.n),
		Marginal:    make([][]float64, s.n),
	}
	l.fillMeans(h, topIdx, gH, sol.Throughput, sol.QueueLen)
	total := h.Sum()
	for i := 0; i < s.n; i++ {
		marg := make([]float64, total+1)
		l.marginalWalk(i, h, gH, gAll.shift, func(j numeric.IntVector, k int, p float64) {
			marg[k] += p
		})
		sol.Marginal[i] = marg
		if s.net.Stations[i].Kind == qnet.IS {
			mean := 0.0
			for k, p := range marg {
				mean += float64(k) * p
			}
			sol.Utilization[i] = mean
		} else {
			sol.Utilization[i] = 1 - marg[0]
		}
	}
	return sol, nil
}

// meansAt is the hot read path: throughputs and queue lengths only.
func (l *lattice) meansAt(h numeric.IntVector) (*Means, error) {
	s := l.s
	gAll := &l.prefix[s.n]
	topIdx := numeric.LatticeIndex(h, s.h)
	gH := gAll.v[topIdx]
	if gH <= 0 || math.IsNaN(gH) || math.IsInf(gH, 0) {
		return nil, fmt.Errorf("%w: degenerate normalisation constant %v (shift 2^%d)", ErrUnstable, gH, gAll.shift)
	}
	m := &Means{
		Throughput: numeric.NewVector(s.w),
		QueueLen:   numeric.NewMatrix(s.n, s.w),
		G:          gH,
		GShift:     gAll.shift,
	}
	l.fillMeans(h, topIdx, gH, m.Throughput, m.QueueLen)
	return m, nil
}

// fillMeans fills chain throughputs and queue lengths at h from the
// cached arrays: slice reads for fixed-rate and IS stations, a
// sub-lattice walk over cached arrays for queue-dependent ones.
func (l *lattice) fillMeans(h numeric.IntVector, topIdx int, gH float64, lam numeric.Vector, q *numeric.Matrix) {
	s := l.s
	gAll := &l.prefix[s.n]
	for w := 0; w < s.w; w++ {
		if h[w] == 0 {
			continue
		}
		lam[w] = s.beta[w] * gAll.v[topIdx-s.strideCache[w]] / gH
	}
	for i := 0; i < s.n; i++ {
		st := &s.net.Stations[i]
		switch {
		case st.Kind == qnet.IS:
			for w := 0; w < s.w; w++ {
				q.Set(i, w, s.net.Chains[w].Demand(i)*lam[w])
			}
		case !st.IsQueueDependent():
			gp := &l.gPlus[i]
			rel := gp.shift - gAll.shift
			for w := 0; w < s.w; w++ {
				if h[w] == 0 {
					continue
				}
				q.Set(i, w, math.Ldexp(s.rho.At(i, w)*gp.v[topIdx-s.strideCache[w]]/gH, rel))
			}
		default:
			l.marginalWalk(i, h, gH, gAll.shift, func(j numeric.IntVector, k int, p float64) {
				for w := 0; w < s.w; w++ {
					if j[w] > 0 {
						q.Set(i, w, q.At(i, w)+float64(j[w])*p)
					}
				}
			})
		}
	}
}

// marginalWalk visits every occupancy vector j <= h of station i with its
// probability p = c_i(j) g_(i-)(h-j) / g(h), reconciling the power-of-two
// scales of the cached arrays.
func (l *lattice) marginalWalk(i int, h numeric.IntVector, gH float64, gShift int, visit func(j numeric.IntVector, k int, p float64)) {
	s := l.s
	gm := &l.gMinus[i]
	var cv []float64
	cShift := 0
	if l.c[i].v != nil {
		cv = l.c[i].v
		cShift = l.c[i].shift
	}
	relShift := gm.shift + cShift - gShift
	numeric.LatticeWalk(h, func(j numeric.IntVector) {
		var cj float64
		if cv != nil {
			cj = cv[numeric.LatticeIndex(j, s.h)]
		} else {
			cj = fixedRateCoefficient(s, i, j)
		}
		if cj == 0 {
			return
		}
		compIdx := 0
		k := 0
		for w := 0; w < s.w; w++ {
			compIdx = compIdx*(s.h[w]+1) + (h[w] - j[w])
			k += j[w]
		}
		visit(j, k, math.Ldexp(cj*gm.v[compIdx]/gH, relShift))
	})
}

// fixedRateCoefficient is eq. 3.27 specialised to a fixed-rate station:
// c_i(j) = (|j| choose j) prod_w rho_iw^{j_w}, the multinomial times the
// scaled-demand powers. Fixed-rate stations never store a c array (the
// recursion of eq. 3.30 replaces it), so marginals evaluate this on the
// fly; the sub-lattice walk dominates the cost either way.
func fixedRateCoefficient(s *solver, i int, j numeric.IntVector) float64 {
	total := 0
	prod := 1.0
	for w := 0; w < s.w; w++ {
		jw := j[w]
		if jw == 0 {
			continue
		}
		r := s.rho.At(i, w)
		if r == 0 {
			return 0
		}
		// Multiply the multinomial incrementally: placing jw more
		// customers multiplies by C(total+jw, jw).
		for k := 1; k <= jw; k++ {
			total++
			prod *= float64(total) / float64(k) * r
		}
	}
	return prod
}

// extendTo returns a new lattice at s2's (strictly larger) box, reusing
// every cached value of the old box: retained arrays are remapped to the
// new strides and only lattice points outside the old box are computed,
// at each array's stored power-of-two scale. An error means the old scale
// cannot represent the new region (the caller rebuilds from scratch); the
// old lattice is never modified.
func (l *lattice) extendTo(s2 *solver, workers int) (*lattice, error) {
	old := l.s
	n := old.n
	planes, mask := buildPlanes(s2)
	nl := &lattice{
		s:       s2,
		workers: workers,
		planes:  planes,
		mask:    mask,
		prefix:  make([]scaled, n+1),
		suffix:  make([]scaled, n+1),
		c:       make([]scaled, n),
		gPlus:   make([]scaled, n),
		gMinus:  make([]scaled, n),
	}
	newPlanes := newRegionPlanes(s2, old.h)
	for i := 0; i < n; i++ {
		if l.c[i].v == nil {
			continue
		}
		nl.c[i] = remapTo(old, s2, l.c[i])
		if err := nl.extendCapacity(i, newPlanes, workers); err != nil {
			return nil, err
		}
	}
	nl.prefix[0] = remapTo(old, s2, l.prefix[0])
	for i := 0; i < n; i++ {
		out := remapTo(old, s2, l.prefix[i+1])
		if err := nl.extendStation(i, nl.prefix[i], &out, newPlanes, workers); err != nil {
			return nil, fmt.Errorf("extending prefix after station %d: %w", i, err)
		}
		nl.prefix[i+1] = out
	}
	if l.suffix[0].v != nil {
		nl.suffix[n] = remapTo(old, s2, l.suffix[n])
		for i := n - 1; i >= 0; i-- {
			out := remapTo(old, s2, l.suffix[i])
			if err := nl.extendStation(i, nl.suffix[i+1], &out, newPlanes, workers); err != nil {
				return nil, fmt.Errorf("extending suffix after station %d: %w", i, err)
			}
			nl.suffix[i] = out
		}
	}
	for i := 0; i < n; i++ {
		if l.gPlus[i].v != nil {
			out := remapTo(old, s2, l.gPlus[i])
			factor := math.Ldexp(1, nl.prefix[n].shift-out.shift)
			nl.fixedRateInto(i, nl.prefix[n].v, out.v, factor, newPlanes, workers)
			if err := out.rescale(); err != nil {
				return nil, fmt.Errorf("extending g+ of station %d: %w", i, err)
			}
			nl.gPlus[i] = out
		}
		if l.gMinus[i].v != nil {
			out := remapTo(old, s2, l.gMinus[i])
			if err := nl.combineInto(&out, nl.prefix[i], nl.suffix[i+1], newPlanes, workers); err != nil {
				return nil, err
			}
			if err := out.rescale(); err != nil {
				return nil, fmt.Errorf("extending g- of station %d: %w", i, err)
			}
			nl.gMinus[i] = out
		}
	}
	return nl, nil
}

// extendStation fills the new-region points of a station convolution:
// out already holds the remapped old-box values at its stored scale and
// in is the fully extended input array.
func (l *lattice) extendStation(i int, in scaled, out *scaled, planes [][]int32, workers int) error {
	if !l.general(i) {
		factor := math.Ldexp(1, in.shift-out.shift)
		l.fixedRateInto(i, in.v, out.v, factor, planes, workers)
	} else {
		if err := l.combineInto(out, l.c[i], in, planes, workers); err != nil {
			return err
		}
	}
	return out.rescale()
}

// extendCapacity fills the new-region capacity coefficients of station i
// at the stored shift, using the same point-local rule as the initial
// build (capacityAt), so old and new points are computed identically. If
// a new point cannot be represented at the stored scale (the grown box
// reaches values the old normalisation flushes to ±Inf) it errors and the
// caller rebuilds the whole lattice at a fresh scale.
func (l *lattice) extendCapacity(i int, planes [][]int32, workers int) error {
	s := l.s
	t := s.capacityTablesFor(i)
	shift := l.c[i].shift
	cv := l.c[i].v
	for _, plane := range planes {
		sweepChunks(plane, workers, func(chunk []int32) {
			p := numeric.NewIntVector(s.w)
			for _, idx := range chunk {
				l.point(idx, p)
				v, lv, ok := s.capacityAt(i, t, p)
				cv[idx] = capacityStore(v, lv, ok, shift)
			}
		})
	}
	if !allFinite(cv) {
		return fmt.Errorf("convolution: capacity coefficients of station %d not finite after extension", i)
	}
	return nil
}

// remapTo copies a lattice array from the old box geometry into the new
// one: values at points inside the old box land at their new mixed-radix
// indices, new-region points start at zero. The innermost chain has
// stride 1 in both geometries, so each run along it is one copy.
func remapTo(olds, news *solver, a scaled) scaled {
	out := make([]float64, news.size)
	last := olds.w - 1
	run := olds.h[last] + 1
	oldIdx := 0
	numeric.LatticeWalk(olds.h[:last], func(p numeric.IntVector) {
		newIdx := 0
		for w, pw := range p {
			newIdx += pw * news.strideCache[w]
		}
		copy(out[newIdx:newIdx+run], a.v[oldIdx:oldIdx+run])
		oldIdx += run
	})
	return scaled{v: out, shift: a.shift}
}

// newRegionPlanes groups the lattice points of the grown box that lie
// OUTSIDE the old box by total population, in LatticeWalk order within
// each plane.
func newRegionPlanes(s *solver, oldH numeric.IntVector) [][]int32 {
	planes := make([][]int32, s.h.Sum()+1)
	idx := int32(0)
	numeric.LatticeWalk(s.h, func(p numeric.IntVector) {
		for w := range p {
			if p[w] > oldH[w] {
				planes[p.Sum()] = append(planes[p.Sum()], idx)
				break
			}
		}
		idx++
	})
	return planes
}
