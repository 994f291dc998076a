// Package mva implements mean value analysis of closed multichain
// queueing networks (Ch. 4 §4.2 of the thesis): the exact single-chain
// and multichain recursions (eqs. 4.4–4.7, Reiser–Lavenberg 1980) and the
// approximate solvers that make window dimensioning tractable — the
// thesis's σ-heuristic (eqs. 4.8–4.15) and the Schweitzer–Bard fixed
// point (used here as an ablation baseline).
package mva

import (
	"fmt"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// Solution holds the steady-state mean values of a closed multichain
// network.
type Solution struct {
	// Throughput[r] is chain r's throughput in customers/second per unit
	// visit ratio (station-level throughput is Visits[r][i]*Throughput[r]).
	Throughput numeric.Vector
	// QueueLen.At(i, r) is the mean number of chain-r customers at
	// station i.
	QueueLen *numeric.Matrix
	// QueueTime.At(i, r) is the mean time a chain-r customer spends per
	// visit to station i (queueing + service).
	QueueTime *numeric.Matrix
	// Iterations counts fixed-point sweeps for the approximate solvers
	// (0 for exact recursions).
	Iterations int
	// Solver names the algorithm that produced the solution ("exact-mva",
	// "sigma-heuristic", "schweitzer", "linearizer", ...). Resilient
	// evaluation layers (core.Engine's fallback chain) append a tier
	// suffix such as "+damped" when the answer did not come from the
	// configured primary solver.
	Solver string
}

func newSolution(n, r int) *Solution {
	return &Solution{
		Throughput: numeric.NewVector(r),
		QueueLen:   numeric.NewMatrix(n, r),
		QueueTime:  numeric.NewMatrix(n, r),
	}
}

// Utilization returns the per-station offered utilisation
// sum_r Throughput[r]*Visits[r][i]*ServTime[r][i] implied by the solution
// for the given network. For single-server fixed-rate stations this equals
// the busy probability.
func (s *Solution) Utilization(net *qnet.Network) numeric.Vector {
	u := numeric.NewVector(net.N())
	for i := 0; i < net.N(); i++ {
		for r := 0; r < net.R(); r++ {
			u[i] += s.Throughput[r] * net.Chains[r].Demand(i)
		}
	}
	return u
}

// TotalQueueLen returns the mean total population at station i.
func (s *Solution) TotalQueueLen(i int) float64 {
	t := 0.0
	for r := 0; r < s.QueueLen.Cols; r++ {
		t += s.QueueLen.At(i, r)
	}
	return t
}

// checkSupported rejects stations the MVA recursions cannot handle.
// allowLD permits queue-dependent stations (single-chain solvers only).
func checkSupported(net *qnet.Network, allowLD bool) error {
	for i := range net.Stations {
		st := &net.Stations[i]
		if st.Kind == qnet.IS {
			continue
		}
		if st.IsQueueDependent() && !allowLD {
			return fmt.Errorf("mva: station %d (%s) is queue-dependent; multichain MVA supports fixed-rate and IS stations only (use the convolution solver)",
				i, st.Name)
		}
	}
	return nil
}

// Prevalidate performs the per-call validation work of the approximate
// solvers once — structural Validate, the supported-station check, and the
// §3.3.3 mixed-network reduction — and returns the effective closed
// network, to be solved with Options.Prevalidated set. Validity is
// independent of chain populations (beyond non-negativity), so the result
// may be re-solved at any population vector; core.Engine relies on this to
// strip all three passes from its per-candidate hot path.
func Prevalidate(net *qnet.Network) (*qnet.Network, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := checkSupported(net, false); err != nil {
		return nil, err
	}
	return net.EffectiveClosed(), nil
}
