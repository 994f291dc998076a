package core

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/rng"
)

// The perturbations SampleScenarios draws: a degraded channel keeps a
// capacity scale uniform on [1-sampleMaxDegradation, 1), a surged class
// gets a rate scale uniform on (1, 1+sampleMaxSurge], and each channel and
// each class is perturbed with probability samplePerturbProb.
const (
	sampleMaxDegradation = 0.5
	sampleMaxSurge       = 0.5
	samplePerturbProb    = 0.35
)

// SampleOptions configures SampleScenarios.
type SampleOptions struct {
	// Count is the number of raw scenarios drawn (before dominance
	// pruning); must be >= 1.
	Count int
	// Seed drives the deterministic PCG sampling. Scenario i is drawn
	// from the SubSeed(Seed, i) stream, so scenario k is the same vector
	// whatever Count is — growing a set keeps its prefix.
	Seed uint64
	// KeepDominated disables the dominance pruning (see
	// PruneDominatedScenarios) of the sampled set.
	KeepDominated bool
}

// SampleScenarios draws a deterministic random scenario set for the
// network: each scenario independently degrades each channel's capacity
// and surges each class's arrival rate, each with probability
// samplePerturbProb. All scenarios carry weight 1.
//
// Unless KeepDominated is set, scenarios that are pointwise no harsher
// than another sampled scenario are pruned (see
// PruneDominatedScenarios): for the minimax criterion only the stress
// frontier can decide the optimum, so the pruned set dimensions the same
// windows at a fraction of the per-candidate cost.
func SampleScenarios(n *netmodel.Network, opts SampleOptions) ([]Scenario, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opts.Count < 1 {
		return nil, fmt.Errorf("core: sample count %d; need >= 1", opts.Count)
	}
	scenarios := make([]Scenario, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		st := rng.New(rng.SubSeed(opts.Seed, uint64(i)))
		sc := Scenario{
			Name:          fmt.Sprintf("sample-%d", i),
			CapacityScale: ones(len(n.Channels)),
			RateScale:     ones(len(n.Classes)),
			Weight:        1,
		}
		for l := range sc.CapacityScale {
			if st.Float64() < samplePerturbProb {
				sc.CapacityScale[l] = 1 - sampleMaxDegradation*st.Float64()
			}
		}
		for r := range sc.RateScale {
			if st.Float64() < samplePerturbProb {
				sc.RateScale[r] = 1 + sampleMaxSurge*st.Float64()
			}
		}
		if err := sc.validate(n); err != nil {
			return nil, err
		}
		scenarios = append(scenarios, sc)
	}
	if opts.KeepDominated {
		return scenarios, nil
	}
	return PruneDominatedScenarios(n, scenarios)
}

// PruneDominatedScenarios removes every scenario that another scenario in
// the set dominates. Scenario A dominates B when A is pointwise at least
// as stressful — capacity scales no larger on every channel AND rate
// scales no smaller on every class; under the monotone assumption that
// less capacity and more offered load never raise power, B's constraint
// is then implied by A's, so the minimax optimum over the pruned set
// equals the one over the full set. Exact duplicates keep their first
// occurrence. The heuristic targets RobustMinimax; a RobustWeighted run
// should keep the full set (every weight contributes to the mean).
func PruneDominatedScenarios(n *netmodel.Network, scenarios []Scenario) ([]Scenario, error) {
	caps := make([][]float64, len(scenarios))
	rates := make([][]float64, len(scenarios))
	for i := range scenarios {
		if err := scenarios[i].validate(n); err != nil {
			return nil, err
		}
		caps[i] = scenarios[i].CapacityScale
		if caps[i] == nil {
			caps[i] = ones(len(n.Channels))
		}
		rates[i] = scenarios[i].RateScale
		if rates[i] == nil {
			rates[i] = ones(len(n.Classes))
		}
	}
	// dominates reports whether scenario a is pointwise at least as
	// stressful as b.
	dominates := func(a, b int) bool {
		for l := range caps[a] {
			if caps[a][l] > caps[b][l] {
				return false
			}
		}
		for r := range rates[a] {
			if rates[a][r] < rates[b][r] {
				return false
			}
		}
		return true
	}
	kept := make([]Scenario, 0, len(scenarios))
	for i := range scenarios {
		dominated := false
		for j := range scenarios {
			if i == j {
				continue
			}
			if !dominates(j, i) {
				continue
			}
			// Mutual dominance = identical stress vectors: keep the
			// earlier one.
			if dominates(i, j) && i < j {
				continue
			}
			dominated = true
			break
		}
		if !dominated {
			kept = append(kept, scenarios[i])
		}
	}
	return kept, nil
}
