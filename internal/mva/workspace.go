package mva

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// WarmStart carries a previously converged solution used to seed STEP 1 of
// the approximate solvers in place of the balanced/bottleneck
// initialisation (eqs. 4.16–4.17). The queue-length columns are rescaled
// to the new chain populations, so a warm start remains valid when
// neighbouring candidates differ by a step in one window — exactly the
// structure of successive pattern-search probes, where the fixed points
// are nearly identical and the iteration converges in a fraction of the
// cold sweep count.
//
// Only mass at a chain's visited stations is read; a solver-produced seed
// (WarmFromSolution) never carries any elsewhere.
//
// Warm-started results converge to the same fixed point as cold ones only
// up to the solver tolerance; callers that need bit-deterministic values
// per candidate (core.Engine under speculative-parallel search) must
// derive the seed from state that depends only on the committed search
// trajectory, never on evaluation order.
type WarmStart struct {
	// Throughput is the previous solution's chain throughput vector.
	Throughput numeric.Vector
	// QueueLen is the previous solution's per-station, per-chain mean
	// queue-length matrix.
	QueueLen *numeric.Matrix
}

// WarmFromSolution clones the parts of a solution a warm start needs. The
// clone makes the seed immune to workspace reuse: solutions returned from
// a workspace-backed Approximate call are overwritten by the next call.
func WarmFromSolution(sol *Solution) *WarmStart {
	return &WarmStart{
		Throughput: sol.Throughput.Clone(),
		QueueLen:   sol.QueueLen.Clone(),
	}
}

// matches reports whether the seed's dimensions fit a network with nSt
// stations and nCh chains.
func (w *WarmStart) matches(nSt, nCh int) bool {
	return w != nil && len(w.Throughput) == nCh && w.QueueLen != nil &&
		w.QueueLen.Rows == nSt && w.QueueLen.Cols == nCh
}

// Workspace holds every buffer Approximate needs, so that repeated calls
// — the inner loop of WINDIM's pattern search — run with zero steady-state
// allocations. A workspace is NOT safe for concurrent use; concurrent
// evaluators (core.Engine's pool) hold one workspace each.
//
// The fixed point's state lives per visit-list entry of the compiled view
// (qnet.Sparse), not in station × chain matrices: q[e], t[e] and sigma[e]
// belong to entry e's (chain, station) pair, and lamD[m] to transpose slot
// m. Only the returned Solution is dense.
//
// Reusing a workspace never changes results: the buffers are reset per
// call and the incremental σ-curve cache only short-circuits recursions
// whose inputs are bit-identical, so a workspace-backed run reproduces the
// workspace-free run exactly.
type Workspace struct {
	nSt, nCh int

	active []bool
	lam    numeric.Vector
	prev   numeric.Vector
	totQ   numeric.Vector // per station, summed through the transpose

	// Per entry e: the mean queue length, queue time and arrival-instant
	// correction of e's chain at station EntStation[e].
	q, t, sigma []float64
	// lamD[m] is λ_j·D_ij for transpose slot m (j = StatChain[m]), the
	// other-chain utilisation terms of the σ step, formed once per sweep.
	lamD []float64

	// σ sub-problem scratch, indexed per visit-list entry (so at most nSt
	// long per chain).
	servInf numeric.Vector
	scT     numeric.Vector
	scZero  numeric.Vector // never written; N(0) of the recursion

	curves []chainCurve

	// compiledSp caches the sparse view Approximate compiles when the
	// caller supplies none; keyed by backing-array identity
	// (qnet.Sparse.Matches), so re-solving the same network — the engine
	// hot path when no Options.Sparse is threaded through — stays
	// allocation-free.
	compiledSp *qnet.Sparse
	// lastSp is the compiled view of the previous call. While it is
	// unchanged, clearing the returned solution touches only the
	// visit-list support; when it changes, the per-entry slices are
	// re-fitted, the solution is cleared densely and the σ curves are
	// dropped (their cached vectors are laid out per entry).
	lastSp *qnet.Sparse

	// sol is returned by workspace-backed Approximate calls; it is valid
	// only until the next call with the same workspace.
	sol *Solution
}

// chainCurve caches the exact single-chain recursion of one chain's σ
// sub-problem (eq. 4.12): q[(d-1)*deg : d*deg] is the queue-length vector
// at population d, valid for the stored inflated service times. Vectors
// are indexed per visit-list entry (deg = the chain's route length, not
// the station count), one population after another in a single slice
// that grows by copy and keeps its backing array across invalidations.
// When a sweep re-solves the sub-problem with bit-identical inflated
// service times — every sweep in a single-chain network, and the
// stabilised tail of any fixed point — the cached prefix is reused and
// only missing populations are extended. Extension reproduces the
// from-scratch recursion bit for bit, so the cache is purely a time
// optimisation.
type chainCurve struct {
	valid   bool
	deg     int // entry count the cached vectors are laid out for
	servInf []float64
	n       int       // populations 1..n are valid
	q       []float64 // populations 1..len(q)/deg laid end to end
}

// NewWorkspace returns an empty workspace; buffers are sized lazily from
// the first network solved with it.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the per-station and per-chain buffers for an nSt-station,
// nCh-chain network, reallocating only on dimension change. The per-entry
// slices are fitted by reset, since networks of equal dimensions can
// differ in route lengths.
func (w *Workspace) ensure(nSt, nCh int) {
	if w.nSt == nSt && w.nCh == nCh {
		return
	}
	w.nSt, w.nCh = nSt, nCh
	w.active = make([]bool, nCh)
	w.lam = numeric.NewVector(nCh)
	w.prev = numeric.NewVector(nCh)
	w.totQ = numeric.NewVector(nSt)
	w.servInf = numeric.NewVector(nSt)
	w.scT = numeric.NewVector(nSt)
	w.scZero = numeric.NewVector(nSt)
	w.curves = make([]chainCurve, nCh)
	w.compiledSp = nil
	w.lastSp = nil
	w.sol = newSolution(nSt, nCh)
}

// compiled returns the sparse view to solve with: the caller's (when it
// matches the network's backing arrays), else the workspace's cached one,
// else a fresh compilation that is cached for the next call.
func (w *Workspace) compiled(net *qnet.Network, sp *qnet.Sparse) *qnet.Sparse {
	if sp != nil && sp.Matches(net) {
		return sp
	}
	if w.compiledSp != nil && w.compiledSp.Matches(net) {
		return w.compiledSp
	}
	w.compiledSp = qnet.Compile(net)
	return w.compiledSp
}

// reset clears the per-call numeric state (the curve cache survives: its
// hits are input-keyed and bit-faithful, see chainCurve). The per-entry
// state is cleared whole, which costs O(route lengths). With the same
// compiled view as the previous call, only the visit-list support of the
// dense solution is cleared — everything off-support is already zero and
// stays zero.
func (w *Workspace) reset(sp *qnet.Sparse) {
	if sp != w.lastSp {
		w.lastSp = sp
		n := sp.Entries()
		w.q = fit(w.q, n)
		w.t = fit(w.t, n)
		w.sigma = fit(w.sigma, n)
		w.lamD = fit(w.lamD, n)
		w.sol.QueueLen.Zero()
		w.sol.QueueTime.Zero()
		for r := range w.curves {
			w.curves[r].valid = false
		}
	} else {
		for r := 0; r < sp.NCh; r++ {
			for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
				i := int(sp.EntStation[e])
				w.sol.QueueLen.Set(i, r, 0)
				w.sol.QueueTime.Set(i, r, 0)
			}
		}
	}
	clear(w.q)
	clear(w.t)
	w.lam.Zero()
	w.sol.Throughput.Zero()
	w.sol.Iterations = 0
}

// fit returns s resliced to length n, reallocating only when its capacity
// is short. Callers clear or overwrite the contents.
func fit(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// curveUpTo returns the σ sub-problem's mean queue lengths at populations
// pop and pop-1 for chain r, extending or rebuilding the cached recursion
// as needed. servInf holds the inflated service times per visit-list entry
// of chain r; the returned vectors are per-entry and alias workspace
// storage.
func (w *Workspace) curveUpTo(r int, sp *qnet.Sparse, servInf []float64, pop int) (nAt, nPrev []float64) {
	c := &w.curves[r]
	deg := len(servInf)
	if c.deg != deg {
		c.deg = deg
		c.q = c.q[:0]
		c.valid = false
	}
	if !c.valid || !floatsEqual(c.servInf, servInf) {
		c.valid = true
		if len(c.servInf) != deg {
			c.servInf = make([]float64, deg)
		}
		copy(c.servInf, servInf)
		c.n = 0
	}
	lo := int(sp.ChainPtr[r])
	visit, isIS := sp.EntVisit[lo:lo+deg], sp.EntIS[lo:lo+deg]
	zero := w.scZero[:deg]
	for d := c.n + 1; d <= pop; d++ {
		if len(c.q) < d*deg {
			c.q = append(c.q, zero...)
		}
		prev := zero
		if d > 1 {
			prev = c.q[(d-2)*deg : (d-1)*deg]
		}
		// The exact single-chain MVA step, in ExactSingleChain's exact
		// arithmetic order so cached and uncached runs agree bitwise.
		t := w.scT[:deg]
		denom := 0.0
		for k := range t {
			if isIS[k] {
				t[k] = c.servInf[k]
			} else {
				t[k] = c.servInf[k] * (1 + prev[k])
			}
			denom += visit[k] * t[k]
		}
		lam := float64(d) / denom
		q := c.q[(d-1)*deg : d*deg]
		for k := range q {
			q[k] = lam * visit[k] * t[k]
		}
	}
	if pop > c.n {
		c.n = pop
	}
	nAt = c.q[(pop-1)*deg : pop*deg]
	nPrev = zero
	if pop > 1 {
		nPrev = c.q[(pop-2)*deg : (pop-1)*deg]
	}
	return nAt, nPrev
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seedChain writes chain r's STEP-1 queue lengths into q (its visit-list
// entries; the rest of q is left alone) and returns the throughput to
// start from. Where the warm seed's column is usable it is rescaled to
// population pop and its throughput carried over (warmed = true);
// otherwise the Init rule places the chain (eqs. 4.16–4.17) and the
// throughput is population over pure service demand (the APL program's
// initialisation). Approximate and the Linearizer's cores both seed here.
// A chain with no visited station cannot be placed — the Bottleneck rule
// once indexed q with -1 and panicked — so it is an error under any rule.
func seedChain(sp *qnet.Sparse, r, pop int, init Initialization, warm *WarmStart, q []float64) (lam float64, warmed bool, err error) {
	lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
	if lo == hi {
		return 0, false, fmt.Errorf("mva: chain %d has no station with positive visits and demand; cannot initialise", r)
	}
	if warm != nil {
		colSum := 0.0
		for e := lo; e < hi; e++ {
			colSum += warm.QueueLen.At(int(sp.EntStation[e]), r)
		}
		wl := warm.Throughput[r]
		if colSum > 0 && !math.IsInf(colSum, 0) && wl > 0 && !math.IsInf(wl, 0) {
			scale := float64(pop) / colSum
			for e := lo; e < hi; e++ {
				q[e] = warm.QueueLen.At(int(sp.EntStation[e]), r) * scale
			}
			return wl, true, nil
		}
	}
	switch init {
	case Bottleneck:
		best, at := -1.0, lo
		for e := lo; e < hi; e++ {
			if sp.EntDemand[e] > best {
				best, at = sp.EntDemand[e], e
			}
		}
		q[at] = float64(pop)
	default: // Balanced
		share := float64(pop) / float64(hi-lo)
		for e := lo; e < hi; e++ {
			q[e] = share
		}
	}
	return float64(pop) / sp.DemandSum[r], false, nil
}
