package mva

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// Linearizer solves the closed multichain network by the Linearizer AMVA
// (Chandy & Neuse 1982) — the standard refinement of the Schweitzer
// approximation, included here as the "what came after the thesis"
// ablation point. It estimates the *fractional deviations*
//
//	F_irj = N_ir(D - e_j)/(D_r - δ_rj) - N_ir(D)/D_r
//
// by solving Schweitzer-style cores at the full population and at each
// one-removed population, updating F between sweeps. Accuracy is
// typically an order of magnitude better than Schweitzer at the cost of
// R+1 core solutions per sweep.
//
// Deviations are only ever non-zero where chain r visits station i, so F
// is stored per station-major visit-list entry — O(route lengths × R)
// instead of O(N·R²) — and the cores iterate the compiled visit lists the
// same way Approximate does.
func Linearizer(net *qnet.Network, opts Options) (*Solution, error) {
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

	pop := net.Populations()
	if !anyPositive(pop) {
		return newSolution(nSt, nCh), nil
	}

	sp := opts.Sparse
	if sp == nil || !sp.Matches(net) {
		sp = qnet.Compile(net)
	}

	// f[m*nCh+j]: deviation of chain StatChain[m]'s share at entry m's
	// station when one chain-j customer is removed. Initialised to zero
	// (= Schweitzer).
	f := make([]float64, len(sp.StatChain)*nCh)

	// The classic schedule: three outer sweeps suffice.
	const sweeps = 3
	// A warm seed (when its dimensions match) replaces the full-population
	// core's balanced initialisation; the one-removed cores keep the cold
	// rule — their populations differ from the seed's anyway.
	warm := opts.Warm
	if !warm.matches(nSt, nCh) {
		warm = nil
	}
	var full *coreResult
	for sweep := 0; sweep < sweeps; sweep++ {
		var err error
		full, err = linearizerCore(sp, pop, f, opts, warm)
		if err != nil {
			return nil, err
		}
		if sweep == sweeps-1 {
			break
		}
		reduced := make([]*coreResult, nCh)
		for j := 0; j < nCh; j++ {
			if pop[j] == 0 {
				continue
			}
			pj := pop.Clone()
			pj[j]--
			reduced[j], err = linearizerCore(sp, pj, f, opts, nil)
			if err != nil {
				return nil, err
			}
		}
		// Update deviations, one transpose slot (chain r at station i) at
		// a time.
		for m, e := range sp.StatEntry {
			r := int(sp.StatChain[m])
			if pop[r] == 0 {
				continue
			}
			yFull := full.q[e] / float64(pop[r])
			fm := f[m*nCh : (m+1)*nCh]
			for j := 0; j < nCh; j++ {
				if reduced[j] == nil {
					continue
				}
				denom := float64(pop[r])
				if j == r {
					denom--
				}
				if denom <= 0 {
					fm[j] = 0
					continue
				}
				fm[j] = reduced[j].q[e]/denom - yFull
			}
		}
	}
	sol := newSolution(nSt, nCh)
	sol.Iterations = full.iterations
	sol.Solver = "linearizer"
	copy(sol.Throughput, full.lam)
	for r := 0; r < nCh; r++ {
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			i := int(sp.EntStation[e])
			sol.QueueLen.Set(i, r, full.q[e])
			sol.QueueTime.Set(i, r, full.t[e])
		}
	}
	return sol, nil
}

// coreResult is one core's fixed point, with q and t per visit-list entry
// of the compiled view.
type coreResult struct {
	lam        numeric.Vector
	q, t       []float64
	iterations int
}

// linearizerCore runs the Schweitzer-with-deviations fixed point at the
// given population: the arrival-instant estimate is
//
//	N_ij(pop - e_r) ≈ (pop_j - δ_jr) * (q_ij/pop_j + F[m(i,j)][r]).
func linearizerCore(sp *qnet.Sparse, pop numeric.IntVector, f []float64, opts Options, warm *WarmStart) (*coreResult, error) {
	nCh := sp.NCh
	res := &coreResult{
		lam: numeric.NewVector(nCh),
		q:   make([]float64, sp.Entries()),
		t:   make([]float64, sp.Entries()),
	}
	if !anyPositive(pop) {
		return res, nil
	}
	// Balanced initialisation, or the warm seed where usable. A cold chain
	// starts from λ = 0, not the seeder's demand estimate, so its first
	// sweep's change is its whole throughput and never passes the
	// stopping test.
	for r := 0; r < nCh; r++ {
		if pop[r] == 0 {
			continue
		}
		l, warmed, err := seedChain(sp, r, pop[r], Balanced, warm, res.q)
		if err != nil {
			return nil, err
		}
		if warmed {
			res.lam[r] = l
		}
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := sweepGate(&opts, iter); err != nil {
			return nil, err
		}
		prev := res.lam.Clone()
		for r := 0; r < nCh; r++ {
			if pop[r] == 0 {
				continue
			}
			denom := 0.0
			for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
				i := int(sp.EntStation[e])
				var ti float64
				if sp.EntIS[e] {
					ti = sp.EntServ[e]
				} else {
					seen := 0.0
					for m := sp.StatPtr[i]; m < sp.StatPtr[i+1]; m++ {
						j := int(sp.StatChain[m])
						if pop[j] == 0 {
							continue
						}
						nj := float64(pop[j])
						if j == r {
							nj--
						}
						if nj <= 0 {
							continue
						}
						est := res.q[sp.StatEntry[m]]/float64(pop[j]) + f[int(m)*nCh+r]
						if est < 0 {
							est = 0
						}
						seen += nj * est
					}
					ti = sp.EntServ[e] * (1 + seen)
				}
				res.t[e] = ti
				denom += sp.EntVisit[e] * ti
			}
			res.lam[r] = float64(pop[r]) / denom
		}
		for r := 0; r < nCh; r++ {
			if pop[r] == 0 {
				continue
			}
			for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
				next := res.lam[r] * sp.EntVisit[e] * res.t[e]
				res.q[e] = opts.Damping*next + (1-opts.Damping)*res.q[e]
			}
		}
		if res.lam.L2Diff(prev) < opts.Tol {
			res.iterations = iter
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: linearizer core at population %v after %d sweeps",
		ErrNotConverged, pop, opts.MaxIter)
}

func anyPositive(v numeric.IntVector) bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
	}
	return false
}
