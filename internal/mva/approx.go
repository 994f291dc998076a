package mva

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/qnet"
)

// Method selects an approximate MVA variant.
type Method int

const (
	// SigmaHeuristic is the thesis's heuristic (Reiser 1979, eqs.
	// 4.8–4.15): the arrival-instant correction σ_ir is estimated from a
	// single-chain problem for chain r whose service times are inflated
	// by the other chains' utilisation, and only the arriving chain's own
	// queue length is corrected (σ_ij(r-) = 0 for j ≠ r, eq. 4.11).
	SigmaHeuristic Method = iota
	// Schweitzer is the Schweitzer–Bard proportional approximation:
	// N_ij(D - e_r) ≈ N_ij(D) * (D_j - δ_jr)/D_j. Included as the
	// ablation baseline the thesis's heuristic is judged against.
	Schweitzer
)

func (m Method) String() string {
	switch m {
	case SigmaHeuristic:
		return "sigma-heuristic"
	case Schweitzer:
		return "schweitzer"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Initialization selects how mean queue lengths are seeded (STEP 1 of the
// iterative heuristic, eqs. 4.16–4.17).
type Initialization int

const (
	// Balanced spreads each chain's population evenly over its stations
	// (the "totally balanced chain" assumption, eq. 4.17).
	Balanced Initialization = iota
	// Bottleneck places each chain's whole population at its
	// largest-demand station (the "static bottleneck" rule, eq. 4.16).
	Bottleneck
)

func (in Initialization) String() string {
	switch in {
	case Balanced:
		return "balanced"
	case Bottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("Initialization(%d)", int(in))
	}
}

// Options configures the approximate solvers. The zero value is the
// thesis's configuration: σ-heuristic, balanced initialisation,
// tolerance 1e-8 on the throughput vector, up to 10000 sweeps.
type Options struct {
	Method Method
	Init   Initialization
	// Tol is the convergence threshold on the Euclidean distance between
	// successive throughput vectors (the APL program's CRIT). <= 0 means
	// 1e-8.
	Tol float64
	// MaxIter bounds fixed-point sweeps. <= 0 means 10000.
	MaxIter int
	// Damping in (0, 1] scales queue-length updates: new = damping*new +
	// (1-damping)*old. 0 means 1 (no damping). The undamped iteration
	// matches the APL program; damping 0.5 rescues rare oscillations.
	Damping float64
	// Warm, when non-nil, seeds STEP 1 from a previous solution instead of
	// the Init rule: queue-length columns are rescaled to the current
	// populations and throughputs carried over. Chains whose warm column
	// is degenerate (or a seed whose dimensions do not match) fall back to
	// the cold initialisation. The fixed point reached agrees with the
	// cold one to within Tol, not bitwise. Only queue-length mass at the
	// chain's visited stations is used; WarmFromSolution seeds carry no
	// mass elsewhere.
	Warm *WarmStart
	// Workspace, when non-nil, supplies preallocated buffers so repeated
	// solves allocate nothing in steady state. The returned Solution then
	// aliases workspace storage and is valid only until the next call with
	// the same workspace; clone (or WarmFromSolution) to retain. Results
	// are bit-identical with and without a workspace. Not safe for
	// concurrent use.
	Workspace *Workspace
	// Sparse, when non-nil and compiled from this network's backing
	// arrays (qnet.Sparse.Matches), supplies the compiled visit lists the
	// sweeps iterate, skipping the per-call compilation. core.Engine
	// compiles once at construction and passes it for every candidate.
	// When nil or mismatched, the solver compiles (and, workspace-backed,
	// caches) its own; results are identical either way.
	Sparse *qnet.Sparse
	// Prevalidated promises the network is already validated, supported,
	// and free of open load (EffectiveClosed applied), skipping those
	// per-call passes. core.Engine validates and reduces its model once at
	// construction and sets this for every candidate evaluation.
	Prevalidated bool
	// Context, when non-nil, is polled between fixed-point sweeps so a
	// stuck or slow iteration can be abandoned from outside: the solver
	// returns an error wrapping ctx.Err(). nil means never cancelled.
	Context context.Context
	// SweepBudget, when non-nil, is polled between sweeps on the same
	// cadence as Context; returning false abandons the fixed point with an
	// error wrapping ErrNotConverged — unlike a Context cancellation, which
	// is terminal. This is the hook core's per-candidate watchdog uses: an
	// overlong iteration is reported as a convergence failure, so the
	// resilient fallback chain can rescue the candidate instead of the
	// whole search dying with it. The sweep count at the poll is passed for
	// diagnostics. nil means unbounded (MaxIter still applies).
	SweepBudget func(sweeps int) bool
}

// sweepGate polls ctx and the sweep budget on the first sweep (so a solve
// never starts against an already-dead context or an exhausted budget) and
// every ctxPollInterval sweeps after that — a per-sweep check would put a
// branch and an atomic load in the hot loop for no benefit; sweeps are
// microseconds.
const ctxPollInterval = 128

func sweepGate(opts *Options, iter int) error {
	if iter != 1 && iter%ctxPollInterval != 0 {
		return nil
	}
	if ctx := opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mva: solve cancelled after %d sweeps: %w", iter, err)
		}
	}
	if opts.SweepBudget != nil && !opts.SweepBudget(iter) {
		return fmt.Errorf("%w: sweep budget exhausted after %d sweeps (method %v)",
			ErrNotConverged, iter, opts.Method)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// ErrNotConverged is wrapped in the error returned when the fixed point
// fails to converge within MaxIter sweeps.
var ErrNotConverged = errors.New("mva: approximate MVA did not converge")

// Approximate solves the closed multichain network by the selected
// approximate MVA. Chains with zero population contribute nothing and get
// zero throughput.
//
// The fixed-point sweeps iterate the network's compiled sparse visit lists
// (qnet.Sparse) and keep their state per visit-list entry (see Workspace),
// so a sweep costs O(total route length) instead of O(stations × chains);
// on the window flow-control models, where each chain visits only its
// route's few stations, that is the difference between per-candidate cost
// scaling with the network and scaling with the routes. The sparse iteration visits exactly the dense loops' non-zero
// terms in the dense loops' order, so results are bit-identical to a dense
// evaluation.
func Approximate(net *qnet.Network, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if !opts.Prevalidated {
		if err := net.Validate(); err != nil {
			return nil, err
		}
		if err := checkSupported(net, false); err != nil {
			return nil, err
		}
		net = net.EffectiveClosed()
	}
	nSt, nCh := net.N(), net.R()

	ws := opts.Workspace
	private := ws == nil
	if private {
		ws = NewWorkspace()
	}
	ws.ensure(nSt, nCh)
	sp := ws.compiled(net, opts.Sparse)
	ws.reset(sp)

	// Active chains: population >= 1.
	active := ws.active
	anyActive := false
	for r := 0; r < nCh; r++ {
		active[r] = net.Chains[r].Population > 0
		anyActive = anyActive || active[r]
	}
	sol := ws.sol
	if private {
		sol = newSolution(nSt, nCh)
	}
	if !anyActive {
		return sol, nil
	}

	// STEP 1: initial queue lengths and throughputs — from the warm seed
	// where one is supplied and usable, the Init rule otherwise.
	q, lam := ws.q, ws.lam
	warm := opts.Warm
	if !warm.matches(nSt, nCh) {
		warm = nil
	}
	for r := 0; r < nCh; r++ {
		if !active[r] {
			continue
		}
		l, _, err := seedChain(sp, r, net.Chains[r].Population, opts.Init, warm, q)
		if err != nil {
			return nil, err
		}
		lam[r] = l
	}

	t, sigma, totQ, prev := ws.t, ws.sigma, ws.totQ, ws.prev
	damp, keep := opts.Damping, 1-opts.Damping
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := sweepGate(&opts, iter); err != nil {
			return nil, err
		}
		// STEP 2: arrival-instant correction.
		switch opts.Method {
		case Schweitzer:
			for r := 0; r < nCh; r++ {
				if !active[r] {
					continue
				}
				inv := 1 / float64(net.Chains[r].Population)
				for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
					sigma[e] = q[e] * inv
				}
			}
		default: // SigmaHeuristic
			sigmaFromSingleChains(ws, net, sp, active)
		}
		// The per-station totals sum_j N_ij do not change within the sweep,
		// so they are accumulated once from the station-major transpose
		// (chains ascending — the dense summation order) instead of per
		// (station, chain) pair.
		for i := 0; i < nSt; i++ {
			if sp.IsIS[i] {
				continue
			}
			total := 0.0
			for m := sp.StatPtr[i]; m < sp.StatPtr[i+1]; m++ {
				total += q[sp.StatEntry[m]]
			}
			totQ[i] = total
		}
		// STEPs 3–5 chain by chain: queue times t_ir = s_ir (1 + sum_j N_ij
		// - sigma_ir), Little for the chain, then Little for its queues,
		// with optional damping. They read only the totals, sigma and the
		// chain's own state, all fixed for the sweep, so running them per
		// chain keeps every sum in its dense order.
		copy(prev, lam)
		for r := 0; r < nCh; r++ {
			if !active[r] {
				continue
			}
			lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
			denom := 0.0
			for e := lo; e < hi; e++ {
				ti := sp.EntServ[e]
				if !sp.EntIS[e] {
					seen := totQ[sp.EntStation[e]] - sigma[e]
					if seen < 0 {
						seen = 0
					}
					ti = sp.EntServ[e] * (1 + seen)
				}
				t[e] = ti
				denom += sp.EntVisit[e] * ti
			}
			l := float64(net.Chains[r].Population) / denom
			lam[r] = l
			for e := lo; e < hi; e++ {
				next := l * sp.EntVisit[e] * t[e]
				q[e] = damp*next + keep*q[e]
			}
		}
		// STEP 6: stopping condition.
		if lam.L2Diff(prev) < opts.Tol {
			sol.Iterations = iter
			sol.Solver = opts.Method.String()
			copy(sol.Throughput, lam)
			for r := 0; r < nCh; r++ {
				for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
					i := int(sp.EntStation[e])
					sol.QueueTime.Set(i, r, t[e])
					sol.QueueLen.Set(i, r, q[e])
				}
			}
			return sol, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps (method %v, tol %g)",
		ErrNotConverged, opts.MaxIter, opts.Method, opts.Tol)
}

// sigmaFromSingleChains fills sigma[e] for every entry of the active
// chains with the thesis's heuristic estimate: isolate chain r into a
// single-chain network whose service times are inflated by the other
// chains' utilisation at each station, s'_ri = s_ri / (1 - rho_{-r,i}),
// run exact single-chain MVA up to E_r, and take σ_ir = N_i(E_r) -
// N_i(E_r - 1) (eq. 4.12). For other chains σ_ij(r-) is taken as zero
// (eq. 4.11), which STEP 3 realises by subtracting sigma only for the
// arriving chain.
//
// The products λ_j·D_ij are formed once per sweep, one per transpose slot.
// The other chains' utilisation at entry e's station is then the sum of
// the station's slots on either side of e's own (EntTrans[e]): the same
// terms in the same ascending chain order as a loop that skips chain r.
// The recursion runs through the workspace's per-chain incremental curve
// cache: sweeps whose inflated service times are unchanged (always true
// for single-chain networks, whose sub-problem has no inflation) reuse
// the cached populations instead of recomputing from 1. Every active
// chain visits a station, which seedChain has checked.
func sigmaFromSingleChains(ws *Workspace, net *qnet.Network, sp *qnet.Sparse, active []bool) {
	const maxRho = 0.999 // clamp: transient iterates can overshoot capacity
	lam, lamD := ws.lam, ws.lamD
	for m, e := range sp.StatEntry {
		// The conversion rounds the product on its own, so a target that
		// fuses multiply-adds cannot merge it into the sums below.
		lamD[m] = float64(lam[sp.StatChain[m]] * sp.EntDemand[e])
	}
	for r := 0; r < sp.NCh; r++ {
		if !active[r] {
			continue
		}
		lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
		servInf := ws.servInf[:hi-lo]
		for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
			// IS stations have a server per customer: other chains
			// occupy them without delaying anyone, so no inflation.
			if sp.EntIS[e] {
				servInf[k] = sp.EntServ[e]
				continue
			}
			i, self := sp.EntStation[e], sp.EntTrans[e]
			other := 0.0
			for _, x := range lamD[sp.StatPtr[i]:self] {
				other += x
			}
			for _, x := range lamD[self+1 : sp.StatPtr[i+1]] {
				other += x
			}
			if other > maxRho {
				other = maxRho
			}
			servInf[k] = sp.EntServ[e] / (1 - other)
		}
		nAt, nPrev := ws.curveUpTo(r, sp, servInf, net.Chains[r].Population)
		sig := ws.sigma[lo:hi]
		for k := range sig {
			s := nAt[k] - nPrev[k]
			if s < 0 {
				s = 0
			} else if s > 1 {
				s = 1
			}
			sig[k] = s
		}
	}
}
