// Package qnet defines the queueing-network model shared by every solver
// in this repository: the exact convolution algorithm, the exact and
// approximate mean-value analyses, the brute-force CTMC, and the
// discrete-event simulator all consume the same Network value.
//
// The model is the class Q* of separable ("BCMP" / product-form) networks
// described in Chapter 3 of the thesis: work-conserving stations (FCFS
// with exponential class-independent service, PS, LCFS-PR, IS, or a
// limited queue-dependent rate server) visited by closed routing chains.
// A chain is characterised by its per-station visit ratios and mean
// service times; for the window-dimensioning problem each virtual channel
// contributes one cyclic chain whose population is the window size.
package qnet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Discipline enumerates the work-conserving queueing disciplines with
// product-form solutions (Ch. 3 §3.2.4).
type Discipline int

const (
	// FCFS is first-come-first-served with exponential service times
	// identical across classes (the BCMP type-1 station).
	FCFS Discipline = iota
	// PS is processor sharing (BCMP type-2).
	PS
	// LCFSPR is last-come-first-served preemptive-resume (BCMP type-4).
	LCFSPR
	// IS is the infinite-server (pure delay) station (BCMP type-3).
	IS
)

func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "FCFS"
	case PS:
		return "PS"
	case LCFSPR:
		return "LCFSPR"
	case IS:
		return "IS"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Station is one service centre.
//
// The zero value is a single-server FCFS station; set Servers or
// RateFactors for queue-dependent rates. The station's base service rate
// is implied by the chains' mean service times, so the station itself only
// carries the *shape* of the capacity function mu(j)/mu(1) (Table 3.6).
type Station struct {
	// Name is a human-readable label used in reports.
	Name string
	// Kind is the queueing discipline.
	Kind Discipline
	// Servers is the number of parallel servers for FCFS/PS/LCFSPR
	// stations; values < 1 are treated as 1. Ignored for IS.
	Servers int
	// RateFactors optionally gives mu(j)/mu(1) for j = 1..len; beyond the
	// last entry the factor stays at the final value ("limited
	// queue-dependent" servers, Table 3.6 row 2). When set it overrides
	// Servers. Ignored for IS.
	RateFactors []float64
	// OpenLoad is the utilisation of the station by open (uncontrolled)
	// chains, in [0, 1). Mixed networks (Ch. 3 §3.3.3): open chains
	// shift the capacity function's argument, which for fixed-rate
	// stations is equivalent to inflating the closed chains' service
	// times by 1/(1-OpenLoad); for IS stations the shift is a constant
	// factor with no effect on closed-chain measures. Queue-dependent
	// stations do not admit the reduction and reject a non-zero value.
	OpenLoad float64
}

// RateFactor returns mu(j)/mu(1), the service-rate multiplier when j
// customers are present. For j <= 0 it returns 0.
func (s *Station) RateFactor(j int) float64 {
	if j <= 0 {
		return 0
	}
	if s.Kind == IS {
		return float64(j)
	}
	if len(s.RateFactors) > 0 {
		if j > len(s.RateFactors) {
			j = len(s.RateFactors)
		}
		return s.RateFactors[j-1]
	}
	m := s.Servers
	if m < 1 {
		m = 1
	}
	if j > m {
		j = m
	}
	return float64(j)
}

// IsQueueDependent reports whether the station's rate varies with queue
// length beyond a single fixed-rate server.
func (s *Station) IsQueueDependent() bool {
	if s.Kind == IS {
		return true
	}
	if len(s.RateFactors) > 0 {
		for _, f := range s.RateFactors {
			if f != s.RateFactors[0] {
				return true
			}
		}
		return false
	}
	return s.Servers > 1
}

// Chain is one closed routing chain (one customer class; the thesis's
// networks never change class membership, so class == chain).
type Chain struct {
	// Name is a human-readable label used in reports.
	Name string
	// Population is the number of customers circulating in the chain —
	// for a virtual channel under window flow control, the window size.
	Population int
	// Visits[i] is the visit ratio of the chain at station i (relative
	// arrival rate; any positive scaling is equivalent, throughputs are
	// reported per unit of visit ratio at the reference use). A zero
	// visit ratio means the chain does not visit the station.
	Visits []float64
	// ServTime[i] is the mean service time per visit at station i in
	// seconds. Must be positive wherever Visits[i] > 0.
	ServTime []float64
}

// Demand returns the service demand Visits[i]*ServTime[i] at station i.
func (c *Chain) Demand(i int) float64 { return c.Visits[i] * c.ServTime[i] }

// Network is a closed multichain queueing network.
type Network struct {
	Stations []Station
	Chains   []Chain
}

// N returns the number of stations.
func (n *Network) N() int { return len(n.Stations) }

// R returns the number of chains.
func (n *Network) R() int { return len(n.Chains) }

// Populations returns the chain population vector.
func (n *Network) Populations() numeric.IntVector {
	p := numeric.NewIntVector(n.R())
	for r := range n.Chains {
		p[r] = n.Chains[r].Population
	}
	return p
}

// WithPopulations returns a shallow copy of the network with the chain
// populations replaced by pop. Stations and per-chain slices are shared;
// solvers treat networks as immutable.
func (n *Network) WithPopulations(pop numeric.IntVector) (*Network, error) {
	if len(pop) != n.R() {
		return nil, fmt.Errorf("qnet: population vector has %d entries for %d chains", len(pop), n.R())
	}
	out := &Network{Stations: n.Stations, Chains: make([]Chain, n.R())}
	copy(out.Chains, n.Chains)
	for r := range out.Chains {
		if pop[r] < 0 {
			return nil, fmt.Errorf("qnet: negative population %d for chain %d", pop[r], r)
		}
		out.Chains[r].Population = pop[r]
	}
	return out, nil
}

// Errors returned by Validate.
var (
	ErrNoStations = errors.New("qnet: network has no stations")
	ErrNoChains   = errors.New("qnet: network has no chains")
)

// Validate checks the structural well-formedness of the network: matching
// dimensions, non-negative visit ratios, positive service times wherever
// visited, non-negative populations, every chain visiting at least one
// station, and the BCMP requirement that FCFS stations serve all chains
// with the same mean service time.
func (n *Network) Validate() error {
	if n.N() == 0 {
		return ErrNoStations
	}
	if n.R() == 0 {
		return ErrNoChains
	}
	for i := range n.Stations {
		st := &n.Stations[i]
		for j, f := range st.RateFactors {
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("qnet: station %d (%s) rate factor %d is %v; need positive finite",
					i, st.Name, j+1, f)
			}
		}
		if st.OpenLoad < 0 || st.OpenLoad >= 1 || math.IsNaN(st.OpenLoad) {
			return fmt.Errorf("qnet: station %d (%s) open load %v outside [0, 1)", i, st.Name, st.OpenLoad)
		}
		if st.OpenLoad > 0 && st.Kind != IS && st.IsQueueDependent() {
			return fmt.Errorf("qnet: station %d (%s) is queue-dependent; open load requires fixed-rate or IS stations", i, st.Name)
		}
	}
	for r := range n.Chains {
		c := &n.Chains[r]
		if len(c.Visits) != n.N() || len(c.ServTime) != n.N() {
			return fmt.Errorf("qnet: chain %d (%s) has %d visits and %d service times for %d stations",
				r, c.Name, len(c.Visits), len(c.ServTime), n.N())
		}
		if c.Population < 0 {
			return fmt.Errorf("qnet: chain %d (%s) has negative population %d", r, c.Name, c.Population)
		}
		visited := false
		for i := range c.Visits {
			v, s := c.Visits[i], c.ServTime[i]
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("qnet: chain %d (%s) visit ratio at station %d is %v", r, c.Name, i, v)
			}
			if v > 0 {
				visited = true
				if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
					return fmt.Errorf("qnet: chain %d (%s) visits station %d with service time %v; need positive finite",
						r, c.Name, i, s)
				}
			}
		}
		if !visited {
			return fmt.Errorf("qnet: chain %d (%s) visits no station", r, c.Name)
		}
	}
	// BCMP condition: FCFS stations must be class-independent in mean
	// service time.
	for i := range n.Stations {
		if n.Stations[i].Kind != FCFS {
			continue
		}
		first := -1.0
		for r := range n.Chains {
			c := &n.Chains[r]
			if c.Visits[i] == 0 {
				continue
			}
			if first < 0 {
				first = c.ServTime[i]
			} else if math.Abs(c.ServTime[i]-first) > 1e-9*first {
				return fmt.Errorf("qnet: FCFS station %d (%s) has class-dependent service times (%v vs %v); product form requires equal means",
					i, n.Stations[i].Name, first, c.ServTime[i])
			}
		}
	}
	return nil
}

// EffectiveClosed returns the pure-closed network equivalent to this
// mixed network: at each fixed-rate station with open load rho0, every
// closed chain's service time is inflated to s/(1-rho0) and the open
// load zeroed (the §3.3.3 reduction). Networks without open load are
// returned unchanged (no copy). Reported queue lengths of the effective
// network count closed-chain customers only, as the thesis's analysis
// does ("we exclude the open chains completely").
func (n *Network) EffectiveClosed() *Network {
	mixed := false
	for i := range n.Stations {
		if n.Stations[i].OpenLoad > 0 {
			mixed = true
			break
		}
	}
	if !mixed {
		return n
	}
	out := &Network{
		Stations: make([]Station, n.N()),
		Chains:   make([]Chain, n.R()),
	}
	copy(out.Stations, n.Stations)
	for i := range out.Stations {
		out.Stations[i].OpenLoad = 0
	}
	for r := range n.Chains {
		c := n.Chains[r]
		st := make([]float64, len(c.ServTime))
		copy(st, c.ServTime)
		for i := range st {
			rho0 := n.Stations[i].OpenLoad
			if rho0 > 0 && n.Stations[i].Kind != IS {
				st[i] /= 1 - rho0
			}
		}
		c.ServTime = st
		out.Chains[r] = c
	}
	return out
}

// ChainStations returns, for each chain, the indices of the stations it
// visits (Q(r) in the thesis's notation).
func (n *Network) ChainStations() [][]int {
	out := make([][]int, n.R())
	for r := range n.Chains {
		for i, v := range n.Chains[r].Visits {
			if v > 0 {
				out[r] = append(out[r], i)
			}
		}
	}
	return out
}

// CyclicChain builds a closed cyclic chain visiting the given stations in
// order, each exactly once per cycle, with the given per-visit mean
// service times. nStations is the total station count of the enclosing
// network. This is the shape every windowed virtual channel takes
// (Fig. 4.1): source queue, then the route's link queues.
func CyclicChain(name string, nStations int, population int, route []int, servTimes []float64) (Chain, error) {
	if len(route) == 0 {
		return Chain{}, fmt.Errorf("qnet: chain %s has an empty route", name)
	}
	if len(route) != len(servTimes) {
		return Chain{}, fmt.Errorf("qnet: chain %s has %d route stops but %d service times", name, len(route), len(servTimes))
	}
	c := Chain{
		Name:       name,
		Population: population,
		Visits:     make([]float64, nStations),
		ServTime:   make([]float64, nStations),
	}
	for k, i := range route {
		if i < 0 || i >= nStations {
			return Chain{}, fmt.Errorf("qnet: chain %s visits station %d outside [0,%d)", name, i, nStations)
		}
		if c.Visits[i] != 0 {
			return Chain{}, fmt.Errorf("qnet: chain %s visits station %d twice; cyclic chains visit each station once", name, i)
		}
		c.Visits[i] = 1
		c.ServTime[i] = servTimes[k]
	}
	return c, nil
}
