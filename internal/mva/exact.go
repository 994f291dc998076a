package mva

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// LatticeBudget caps the population lattice the exact multichain recursion
// will attempt (it stores one queue-length matrix per lattice point).
const LatticeBudget = 1 << 22

// ExactMultichain computes the exact MVA solution of a closed multichain
// network with fixed-rate (FCFS/PS/LCFSPR) and IS stations, by the full
// recursion over the population lattice (eqs. 4.4–4.7):
//
//	t_ir(D) = s_ir * (1 + N_i(D - e_r))   (queueing stations)
//	t_ir(D) = s_ir                        (IS stations)
//	lambda_r(D) = D_r / sum_i V_ir t_ir(D)
//	N_ir(D) = lambda_r(D) V_ir t_ir(D)
//
// Cost is Theta(N*R*prod_r (E_r+1)) — the exponential operations count the
// thesis quotes for the exact analysis.
func ExactMultichain(net *qnet.Network) (*Solution, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := checkSupported(net, false); err != nil {
		return nil, err
	}
	net = net.EffectiveClosed()
	h := net.Populations()
	size, err := numeric.LatticeSize(h, LatticeBudget)
	if err != nil {
		return nil, fmt.Errorf("mva: %w", err)
	}
	nSt, nCh := net.N(), net.R()
	// The compiled visit lists make each lattice point cost O(total route
	// length); compilation itself is O(N·R), invisible next to the
	// exponential walk.
	sp := qnet.Compile(net)
	// totals[p*nSt + i] = total mean queue length at station i for
	// population vector p. Only totals are needed by the recursion; the
	// per-chain split is reconstructed at the top point.
	totals := make([]float64, size*nSt)
	strides := make([]int, nCh)
	stride := 1
	for r := nCh - 1; r >= 0; r-- {
		strides[r] = stride
		stride *= h[r] + 1
	}
	sol := newSolution(nSt, nCh)
	sol.Solver = "exact-mva"
	t := numeric.NewMatrix(nSt, nCh) // queue times at current point
	idx := 0
	numeric.LatticeWalk(h, func(p numeric.IntVector) {
		base := idx * nSt
		for r := 0; r < nCh; r++ {
			if p[r] == 0 {
				continue
			}
			lo, hi := sp.ChainPtr[r], sp.ChainPtr[r+1]
			prevBase := (idx - strides[r]) * nSt
			denom := 0.0
			for e := lo; e < hi; e++ {
				i := int(sp.EntStation[e])
				var ti float64
				if sp.EntIS[e] {
					ti = sp.EntServ[e]
				} else {
					ti = sp.EntServ[e] * (1 + totals[prevBase+i])
				}
				t.Set(i, r, ti)
				denom += sp.EntVisit[e] * ti
			}
			lam := float64(p[r]) / denom
			if idx == size-1 {
				sol.Throughput[r] = lam
				for e := lo; e < hi; e++ {
					i := int(sp.EntStation[e])
					sol.QueueTime.Set(i, r, t.At(i, r))
					sol.QueueLen.Set(i, r, lam*sp.EntVisit[e]*t.At(i, r))
				}
			}
			for e := lo; e < hi; e++ {
				i := int(sp.EntStation[e])
				totals[base+i] += lam * sp.EntVisit[e] * t.At(i, r)
			}
		}
		idx++
	})
	return sol, nil
}

// SingleChainCurve holds the exact single-chain MVA solution at every
// population 1..D: the building block of the thesis's σ-heuristic
// (eq. 4.12 needs N at both E_r and E_r-1) and of Fig. 4.1's simple
// cyclic chain analysis.
type SingleChainCurve struct {
	// Throughput[d] is the chain throughput with population d+1.
	Throughput numeric.Vector
	// QueueLen[d][i] is the mean queue length at station i with
	// population d+1.
	QueueLen []numeric.Vector
	// QueueTime[d][i] is the mean per-visit queueing time at station i
	// with population d+1.
	QueueTime []numeric.Vector
}

// ExactSingleChain runs the exact single-chain MVA recursion up to
// population maxPop over the given visit ratios and service times
// (stations not visited have visit ratio 0). isStation[i] marks IS
// stations (no queueing term). Queue-dependent stations are not supported
// here; use SingleChainLD.
func ExactSingleChain(visits, servTime numeric.Vector, isStation []bool, maxPop int) (*SingleChainCurve, error) {
	n := len(visits)
	if len(servTime) != n || (isStation != nil && len(isStation) != n) {
		return nil, fmt.Errorf("mva: single-chain dimension mismatch")
	}
	if maxPop < 1 {
		return nil, fmt.Errorf("mva: single-chain population must be >= 1, got %d", maxPop)
	}
	anyVisit := false
	for i := 0; i < n; i++ {
		if visits[i] > 0 {
			anyVisit = true
			if servTime[i] <= 0 {
				return nil, fmt.Errorf("mva: station %d visited with non-positive service time", i)
			}
		}
	}
	if !anyVisit {
		return nil, fmt.Errorf("mva: chain visits no station")
	}
	curve := &SingleChainCurve{
		Throughput: numeric.NewVector(maxPop),
		QueueLen:   make([]numeric.Vector, maxPop),
		QueueTime:  make([]numeric.Vector, maxPop),
	}
	prev := numeric.NewVector(n)
	for d := 1; d <= maxPop; d++ {
		t := numeric.NewVector(n)
		denom := 0.0
		for i := 0; i < n; i++ {
			if visits[i] == 0 {
				continue
			}
			if isStation != nil && isStation[i] {
				t[i] = servTime[i]
			} else {
				t[i] = servTime[i] * (1 + prev[i])
			}
			denom += visits[i] * t[i]
		}
		lam := float64(d) / denom
		q := numeric.NewVector(n)
		for i := 0; i < n; i++ {
			if visits[i] > 0 {
				q[i] = lam * visits[i] * t[i]
			}
		}
		curve.Throughput[d-1] = lam
		curve.QueueLen[d-1] = q
		curve.QueueTime[d-1] = t
		prev = q
	}
	return curve, nil
}

// SingleChainLD runs exact single-chain MVA with load-dependent stations,
// tracking the marginal queue-length probabilities p_i(j | d)
// (Reiser–Lavenberg): for a station with rate factors f(j),
//
//	t_i(d) = sum_{j=1..d} (j * s_i / f(j)) p_i(j-1 | d-1)
//	p_i(j|d) = (lambda(d) V_i s_i / f(j)) p_i(j-1 | d-1),  j >= 1
//	p_i(0|d) = 1 - sum_{j>=1} p_i(j|d)
//
// Stations with rateFactor nil behave as fixed-rate single servers.
func SingleChainLD(visits, servTime numeric.Vector, stations []qnet.Station, maxPop int) (*SingleChainCurve, error) {
	n := len(visits)
	if len(servTime) != n || len(stations) != n {
		return nil, fmt.Errorf("mva: single-chain LD dimension mismatch")
	}
	if maxPop < 1 {
		return nil, fmt.Errorf("mva: single-chain population must be >= 1, got %d", maxPop)
	}
	// p[i][j] = P(station i holds j customers | current population).
	p := make([]numeric.Vector, n)
	for i := range p {
		p[i] = numeric.NewVector(maxPop + 1)
		p[i][0] = 1
	}
	curve := &SingleChainCurve{
		Throughput: numeric.NewVector(maxPop),
		QueueLen:   make([]numeric.Vector, maxPop),
		QueueTime:  make([]numeric.Vector, maxPop),
	}
	for d := 1; d <= maxPop; d++ {
		t := numeric.NewVector(n)
		denom := 0.0
		for i := 0; i < n; i++ {
			if visits[i] == 0 {
				continue
			}
			st := &stations[i]
			if st.Kind == qnet.IS {
				t[i] = servTime[i]
			} else if st.IsQueueDependent() {
				for j := 1; j <= d; j++ {
					t[i] += float64(j) * servTime[i] / st.RateFactor(j) * p[i][j-1]
				}
			} else {
				// Fixed rate: t = s(1+N), N = sum j p(j).
				mean := 0.0
				for j := 1; j < d; j++ {
					mean += float64(j) * p[i][j]
				}
				t[i] = servTime[i] * (1 + mean)
			}
			denom += visits[i] * t[i]
		}
		lam := float64(d) / denom
		q := numeric.NewVector(n)
		for i := 0; i < n; i++ {
			if visits[i] == 0 {
				continue
			}
			st := &stations[i]
			q[i] = lam * visits[i] * t[i]
			if st.Kind != qnet.IS {
				// Update marginals from high j downwards using the
				// previous population's values.
				newP := numeric.NewVector(maxPop + 1)
				sum := 0.0
				for j := d; j >= 1; j-- {
					f := st.RateFactor(j)
					newP[j] = lam * visits[i] * servTime[i] / f * p[i][j-1]
					sum += newP[j]
				}
				newP[0] = 1 - sum
				if newP[0] < 0 {
					newP[0] = 0
				}
				p[i] = newP
			}
		}
		curve.Throughput[d-1] = lam
		curve.QueueLen[d-1] = q
		curve.QueueTime[d-1] = t
	}
	return curve, nil
}
