// Package power implements the thesis's performance criterion — the
// network "power" P = throughput / mean network delay (Giessler et al.
// [5]) — together with Kleinrock's p-hop M/M/1 reference model (eq. 4.21)
// whose optimum motivates the hop-count window rule used to initialise
// WINDIM.
package power

import (
	"fmt"
	"math"

	"repro/internal/mva"
	"repro/internal/qnet"
)

// Metrics summarises a window-controlled network's performance at one
// operating point.
type Metrics struct {
	// ClassThroughput[r] is chain r's throughput in messages/second.
	ClassThroughput []float64
	// ClassDelay[r] is chain r's mean network delay in seconds (time in
	// the network's link queues; the source queue is excluded, V(r) =
	// Q(r) - source in the thesis's notation).
	ClassDelay []float64
	// Throughput is the total network throughput (messages/second).
	Throughput float64
	// Delay is the average network delay over all messages:
	// sum_r N_r(network) / sum_r lambda_r (Little over the network
	// queues).
	Delay float64
	// Power is Throughput / Delay; the WINDIM objective is 1/Power.
	Power float64
}

// FromSolution derives power metrics from a solved closed-chain model.
// excluded[r] lists the station indices of chain r's reentrant sink→source
// path (source queue, acknowledgement station) left out of the network
// delay; a nil entry counts every station as network. It compiles the
// model's visit lists for the one read; repeated callers hold a compiled
// view and call FromSolutionInto.
func FromSolution(net *qnet.Network, sol *mva.Solution, excluded [][]int) (*Metrics, error) {
	m := &Metrics{}
	if err := FromSolutionInto(m, qnet.Compile(net), sol, excluded); err != nil {
		return nil, err
	}
	return m, nil
}

// FromSolutionInto is FromSolution over the model's compiled view sp,
// writing into a caller-owned Metrics and reusing its slices when they are
// large enough — the zero-allocation path core.Engine takes for every
// search candidate.
//
// A chain's network population is summed over its visit list only, in
// ascending station order. Every solver leaves an exact zero where a chain
// has no visits, so skipping those terms gives the sum over all stations
// bit for bit, at a cost of the route length instead of the station count.
func FromSolutionInto(m *Metrics, sp *qnet.Sparse, sol *mva.Solution, excluded [][]int) error {
	nCh := sp.NCh
	if len(excluded) != nCh {
		return fmt.Errorf("power: %d exclusion lists for %d chains", len(excluded), nCh)
	}
	if cap(m.ClassThroughput) >= nCh && cap(m.ClassDelay) >= nCh {
		m.ClassThroughput = m.ClassThroughput[:nCh]
		m.ClassDelay = m.ClassDelay[:nCh]
	} else {
		m.ClassThroughput = make([]float64, nCh)
		m.ClassDelay = make([]float64, nCh)
	}
	m.Throughput, m.Delay, m.Power = 0, 0, 0
	totalN := 0.0
	for r := 0; r < nCh; r++ {
		lam := sol.Throughput[r]
		m.ClassThroughput[r] = lam
		m.Throughput += lam
		n := 0.0
	entries:
		for e := sp.ChainPtr[r]; e < sp.ChainPtr[r+1]; e++ {
			i := int(sp.EntStation[e])
			for _, x := range excluded[r] {
				if i == x {
					continue entries
				}
			}
			n += sol.QueueLen.At(i, r)
		}
		totalN += n
		m.ClassDelay[r] = 0
		if lam > 0 {
			m.ClassDelay[r] = n / lam
		}
	}
	if m.Throughput > 0 {
		m.Delay = totalN / m.Throughput
	}
	if m.Delay > 0 {
		m.Power = m.Throughput / m.Delay
	}
	return nil
}

// ClassPower returns chain r's own power P_r = lambda_r / T_r, or 0 when
// the chain carries no traffic.
func (m *Metrics) ClassPower(r int) float64 {
	if m.ClassDelay[r] <= 0 {
		return 0
	}
	return m.ClassThroughput[r] / m.ClassDelay[r]
}

// MinClassPower returns the smallest per-class power — the fairness
// criterion of the dimensioning extension (maximising it protects the
// weakest virtual channel instead of the aggregate).
func (m *Metrics) MinClassPower() float64 {
	min := math.Inf(1)
	for r := range m.ClassThroughput {
		if p := m.ClassPower(r); p < min {
			min = p
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// SumClassPower returns the sum of per-class powers, a per-channel
// alternative to the thesis's aggregate ratio.
func (m *Metrics) SumClassPower() float64 {
	s := 0.0
	for r := range m.ClassThroughput {
		s += m.ClassPower(r)
	}
	return s
}

// Kleinrock is the p-hop M/M/1 reference model of [52] (Ch. 4 §4.6): a
// chain of Hops identical M/M/1 queues with aggregate capacity Mu
// messages/second per hop and instantaneous end-to-end acknowledgements.
type Kleinrock struct {
	// Hops is the number of store-and-forward hops on the virtual
	// channel.
	Hops int
	// Mu is the per-hop service rate in messages/second.
	Mu float64
}

// Delay returns the model's total average network delay at network
// throughput lambda (eq. 4.21): T = Hops / (Mu - lambda). It returns +Inf
// at or beyond saturation.
func (k Kleinrock) Delay(lambda float64) float64 {
	if lambda >= k.Mu {
		return math.Inf(1)
	}
	return float64(k.Hops) / (k.Mu - lambda)
}

// ThroughputForWindow returns the throughput lambda(E) implied by a
// window of E messages over the channel: Little's law over the closed
// loop gives E = lambda * T(lambda), so lambda = E*Mu/(Hops+E).
func (k Kleinrock) ThroughputForWindow(e int) float64 {
	if e <= 0 {
		return 0
	}
	return float64(e) * k.Mu / (float64(k.Hops) + float64(e))
}

// PowerForWindow returns P(E) = lambda(E)/T(lambda(E)) for a window of E.
func (k Kleinrock) PowerForWindow(e int) float64 {
	lam := k.ThroughputForWindow(e)
	t := k.Delay(lam)
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return lam / t
}

// OptimalWindow returns the window maximising the model's power. For the
// p-hop M/M/1 chain the optimum is exactly E = Hops (lambda = Mu/2), the
// rule the thesis credits to Kleinrock and uses to initialise WINDIM and
// as the Table 4.12 baseline (the "(4 4 3 1)" settings).
func (k Kleinrock) OptimalWindow() int { return k.Hops }
