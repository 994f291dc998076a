package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/qnet"
)

// Engine is a reusable per-network evaluator: it performs the Fig. 4.6
// closed-chain transformation, validation, and the mixed-network reduction
// ONCE at construction, then evaluates candidate window vectors by
// mutating only the chain populations of pooled model copies. Combined
// with the mva workspace (preallocated buffers, incremental σ curves) and
// the warm-start seed, the per-candidate cost drops from "build + validate
// + cold-solve" to a handful of warm fixed-point sweeps with near-zero
// allocations — the difference WINDIM's inner loop is measured by in
// BenchmarkEvaluateEngine and BenchmarkDimensionWarmVsCold.
//
// An Engine is safe for concurrent Evaluate/ObjectiveValue calls (each
// borrows a pooled evaluation state); Commit must not run concurrently
// with evaluations. pattern.Search's OnCommit hook guarantees exactly
// that: commits happen serially, after the pass barrier.
//
// Determinism: every evaluation between two commits seeds from the same
// committed WarmStart, never from another candidate's result, so the
// objective is a pure function of (committed trajectory, candidate). This
// is what makes speculative-parallel exploration bit-identical to the
// serial search.
type Engine struct {
	opts Options
	nCls int
	ref  *qnet.Network // prevalidated effective-closed reference model
	// sparse is the reference model's compiled visit-list view, built once
	// here and passed to every approximate solve. Pooled model copies
	// share the reference's backing arrays, so one compilation serves all
	// borrowers (qnet.Sparse.Matches is identity-based).
	sparse   *qnet.Sparse
	excluded [][]int
	useWarm  bool
	useChain bool // resilient fallback chain on ErrNotConverged
	// dog, when non-nil, bounds each candidate solve by a deadline derived
	// from the rolling cost of recent candidates (Options.EvalTimeout).
	dog *watchdog
	// conv, when non-nil (Options.ExactEngine), answers exact evaluations
	// — the EvalExactMVA primary path and the TierExact fallback stage —
	// from a shared convolution lattice instead of a fresh exponential
	// recursion per candidate. Candidates it declines (lattice too large,
	// numerical trouble) fall through to mva.ExactMultichain as before.
	conv *convOracle
	warm atomic.Pointer[mva.WarmStart]
	pool sync.Pool
	// tiers counts successful evaluations per fallback tier (see
	// FallbackTier). Atomic: Evaluate/ObjectiveValue run concurrently.
	tiers [NumFallbackTiers]atomic.Int64
}

// evalState is one borrowed evaluation context: a model view sharing the
// reference Stations but owning its Chains (so populations can be mutated
// without racing other borrowers), a solver workspace, and a Metrics whose
// slices are recycled by ObjectiveValue.
type evalState struct {
	model   qnet.Network
	ws      *mva.Workspace
	metrics power.Metrics
}

// NewEngine builds the evaluation engine for a network under the given
// WINDIM options (Evaluator and MVA settings are honoured; search-related
// fields are ignored). The closed-chain model is constructed at the
// all-ones window vector purely to fix its structure — windows enter only
// as chain populations afterwards.
func NewEngine(n *netmodel.Network, opts Options) (*Engine, error) {
	nCls := len(n.Classes)
	ones := numeric.NewIntVector(nCls)
	for i := range ones {
		ones[i] = 1
	}
	model, excluded, err := n.ClosedModel(ones)
	if err != nil {
		return nil, err
	}
	ref := model
	if opts.Evaluator != EvalExactMVA {
		// The approximate paths run with Prevalidated set, so the checks
		// and the open-load reduction happen here, once.
		ref, err = mva.Prevalidate(model)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		opts:     opts,
		nCls:     nCls,
		ref:      ref,
		sparse:   qnet.Compile(ref),
		excluded: excluded,
		// The exact evaluator re-validates per call and ColdStart asks for
		// reproductions of the legacy cold trajectory, so neither seeds
		// from previous candidates.
		useWarm: opts.Evaluator != EvalExactMVA && !opts.ColdStart,
		// The exact recursion is iteration-free: there is nothing to fall
		// back from.
		useChain: opts.Evaluator != EvalExactMVA && !opts.DisableFallback,
	}
	if opts.Evaluator != EvalExactMVA {
		// Iteration-free exact evaluations cannot stall; the watchdog only
		// guards the fixed-point solvers.
		e.dog = newWatchdog(opts.EvalTimeout)
	}
	if opts.ExactEngine {
		if opts.OracleBox != nil {
			// A box-bounded oracle declines candidates an unbounded one
			// would serve, so it must never be shared through the cache.
			e.conv = newConvOracle(ref, opts.Workers, opts.OracleBox)
		} else {
			cache := opts.Oracles
			if cache == nil {
				cache = NewOracleCache(0)
			}
			e.conv = cache.oracleFor(ref, opts.Workers)
		}
	}
	e.pool.New = func() any {
		st := &evalState{
			model: qnet.Network{
				Stations: e.ref.Stations,
				Chains:   make([]qnet.Chain, len(e.ref.Chains)),
			},
			ws: mva.NewWorkspace(),
		}
		copy(st.model.Chains, e.ref.Chains)
		return st
	}
	return e, nil
}

// reserveScan pre-sizes the convolution oracle for an exhaustive scan whose
// upper corner is hi: to Options.OracleBox when set (a slab worker's
// corner, so its later strides never grow the lattice), otherwise to hi.
// Under BufferLimits it does nothing: lazy growth then stops at the
// largest feasible candidate instead of the whole box.
func (e *Engine) reserveScan(hi numeric.IntVector) {
	if e.conv == nil || e.opts.BufferLimits != nil {
		return
	}
	box := e.opts.OracleBox
	if box == nil {
		box = hi
	}
	e.conv.reserve(box)
}

// solve borrows nothing: st is caller-owned. It sets the populations and
// runs the configured solver, warm-seeded from the last committed base
// point when enabled. On a convergence failure the resilient fallback
// chain (fallback.go) takes over; the returned tier names who answered.
// Every tier is a deterministic function of (committed warm seed,
// candidate), so the chain preserves the engine's purity contract and the
// speculative-parallel search stays bit-identical to the serial one.
func (e *Engine) solve(st *evalState, windows numeric.IntVector) (*mva.Solution, FallbackTier, error) {
	if len(windows) != e.nCls {
		return nil, TierPrimary, fmt.Errorf("core: %d windows for %d classes", len(windows), e.nCls)
	}
	for r := range st.model.Chains {
		if windows[r] < 0 {
			return nil, TierPrimary, fmt.Errorf("core: negative window %d for class %d", windows[r], r)
		}
		st.model.Chains[r].Population = windows[r]
	}
	var warm *mva.WarmStart
	if e.useWarm {
		warm = e.warm.Load()
	}
	var began time.Time
	if e.dog != nil {
		began = time.Now()
	}
	budget := e.sweepBudget()
	var sol *mva.Solution
	var err error
	switch e.opts.Evaluator {
	case EvalExactMVA:
		if e.conv != nil {
			sol = e.conv.solve(&st.model)
		}
		if sol == nil {
			sol, err = mva.ExactMultichain(&st.model)
		}
	case EvalSchweitzerMVA:
		mo := e.opts.MVA
		mo.Method = mva.Schweitzer
		mo.Prevalidated = true
		mo.Workspace = st.ws
		mo.Warm = warm
		mo.Sparse = e.sparse
		mo.SweepBudget = budget
		sol, err = mva.Approximate(&st.model, mo)
	case EvalLinearizerMVA:
		mo := e.opts.MVA
		mo.Prevalidated = true
		mo.Warm = warm
		mo.Sparse = e.sparse
		mo.SweepBudget = budget
		sol, err = mva.Linearizer(&st.model, mo)
	default:
		mo := e.opts.MVA
		mo.Method = mva.SigmaHeuristic
		mo.Prevalidated = true
		mo.Workspace = st.ws
		mo.Warm = warm
		mo.Sparse = e.sparse
		mo.SweepBudget = budget
		sol, err = mva.Approximate(&st.model, mo)
	}
	if err == nil && e.dog != nil {
		e.dog.observe(time.Since(began))
	}
	if err != nil && e.useChain && errors.Is(err, mva.ErrNotConverged) {
		return e.solveFallback(st, warm, err)
	}
	return sol, TierPrimary, err
}

// sweepBudget returns a fresh per-solve watchdog budget for the mva
// solvers, or nil when the watchdog is disabled. The trip counter
// increments at most once per solve: the solver aborts on the first false.
func (e *Engine) sweepBudget() func(int) bool {
	if e.dog == nil {
		return nil
	}
	b := e.dog.budget()
	dog := e.dog
	return func(sweeps int) bool {
		if b(sweeps) {
			return true
		}
		dog.trips.Add(1)
		return false
	}
}

// WatchdogTrips reports how many candidate solves the per-candidate
// watchdog (Options.EvalTimeout) cut short into the fallback chain.
func (e *Engine) WatchdogTrips() int64 { return e.dog.Trips() }

// solveCounted is solve plus the per-tier bookkeeping shared by the
// public evaluation entry points.
func (e *Engine) solveCounted(st *evalState, windows numeric.IntVector) (*mva.Solution, FallbackTier, error) {
	sol, tier, err := e.solve(st, windows)
	if err == nil {
		e.tiers[tier].Add(1)
	}
	return sol, tier, err
}

// FallbackCounts reports how many successful evaluations each tier of the
// resilient chain has answered since the engine was built. Under
// speculative-parallel search the counts include discarded probes, like
// Result.NonConverged.
func (e *Engine) FallbackCounts() FallbackCounts {
	var c FallbackCounts
	for t := range e.tiers {
		c[t] = e.tiers[t].Load()
	}
	return c
}

// Evaluate solves the model at the given windows and returns freshly
// allocated power metrics (safe to retain).
func (e *Engine) Evaluate(windows numeric.IntVector) (*power.Metrics, error) {
	m, _, err := e.EvaluateWithTier(windows)
	return m, err
}

// EvaluateWithTier is Evaluate plus the fallback tier that answered —
// TierPrimary when the configured evaluator converged directly, a later
// tier when the resilient chain rescued the candidate.
func (e *Engine) EvaluateWithTier(windows numeric.IntVector) (*power.Metrics, FallbackTier, error) {
	st := e.pool.Get().(*evalState)
	defer e.pool.Put(st)
	sol, tier, err := e.solveCounted(st, windows)
	if err != nil {
		return nil, tier, err
	}
	m := &power.Metrics{}
	if err := power.FromSolutionInto(m, e.sparse, sol, e.excluded); err != nil {
		return nil, tier, err
	}
	return m, tier, nil
}

// ObjectiveValue returns the WINDIM objective (1/power under the chosen
// criterion) at the given windows. This is the search hot path: metrics
// land in the pooled state's recycled slices, so a steady-state call
// allocates nothing.
func (e *Engine) ObjectiveValue(windows numeric.IntVector, kind ObjectiveKind) (float64, error) {
	st := e.pool.Get().(*evalState)
	defer e.pool.Put(st)
	sol, _, err := e.solveCounted(st, windows)
	if err != nil {
		return 0, err
	}
	if err := power.FromSolutionInto(&st.metrics, e.sparse, sol, e.excluded); err != nil {
		return 0, err
	}
	return objectiveValue(&st.metrics, kind), nil
}

// Commit promotes the solution at windows to the warm-start seed for
// subsequent evaluations. Intended as pattern.Options.OnCommit: the
// candidate was just accepted as a base point, its neighbours are the next
// probes, and no evaluation is in flight. The committed seed is re-solved
// from the PREVIOUS committed seed, so the warm chain depends only on the
// accepted trajectory — never on which speculative probes happened to run.
// A failed solve leaves the previous seed in place.
func (e *Engine) Commit(windows numeric.IntVector) {
	if !e.useWarm {
		return
	}
	st := e.pool.Get().(*evalState)
	defer e.pool.Put(st)
	sol, _, err := e.solve(st, windows)
	if err != nil {
		return
	}
	e.warm.Store(mva.WarmFromSolution(sol))
}
