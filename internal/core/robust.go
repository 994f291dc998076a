package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/power"
)

// RobustKind selects what DimensionRobust optimises across the scenario
// set.
type RobustKind int

const (
	// RobustMinimax maximises the worst-scenario power: the chosen
	// windows are the best guarantee when any scenario may occur and
	// none is more likely than another matters.
	RobustMinimax RobustKind = iota
	// RobustWeighted maximises the probability-weighted mean power
	// (scenario Weights, normalised): the best long-run average when the
	// scenarios occur with known frequencies.
	RobustWeighted
)

var robustNames = enumNames[RobustKind]{"robust criterion", []string{
	RobustMinimax:  "minmax",
	RobustWeighted: "weighted",
}}

// ParseRobustKind maps a wire name (minmax, weighted) to its RobustKind.
func ParseRobustKind(s string) (RobustKind, error) { return robustNames.parse(s) }

func (k RobustKind) String() string {
	if name, err := robustNames.name(k); err == nil {
		return name
	}
	return fmt.Sprintf("RobustKind(%d)", int(k))
}

// RobustResult is the outcome of a DimensionRobust run.
type RobustResult struct {
	// Windows is the robust-optimal window vector.
	Windows numeric.IntVector
	// ScenarioPower[i] is the objective-criterion power at Windows under
	// scenario i; PerScenario[i] the full metrics.
	ScenarioPower []float64
	PerScenario   []*power.Metrics
	// WorstScenario indexes the scenario with the lowest power at
	// Windows; WorstPower is that power (the minimax criterion value).
	WorstScenario int
	WorstPower    float64
	// WeightedPower is the normalised weighted mean power at Windows
	// (the RobustWeighted criterion value, reported for either kind).
	WeightedPower float64
	// Search is the underlying optimiser trace.
	Search *pattern.Result
	// NonConverged counts candidate evaluations where some scenario's
	// fixed point failed even after the fallback chain (the candidate is
	// treated as infeasible). Speculative probes are included under
	// Workers > 1, as in Result.
	NonConverged int
	// Fallbacks sums, across the per-scenario engines, how many
	// evaluations each resilient-chain tier answered.
	Fallbacks FallbackCounts
	// Degraded lists scenarios excluded during the run (terminal
	// evaluation errors, or Options.DegradeAfter strike-outs); their
	// ScenarioPower entries are NaN and PerScenario entries nil. The
	// remaining WorstPower/WeightedPower are computed over the active
	// scenarios only.
	Degraded []DegradedScenario
	// WatchdogTrips sums, across the per-scenario engines, the candidate
	// solves the per-candidate watchdog cut short.
	WatchdogTrips int64
}

// robustWeights returns the normalised scenario weights (<= 0 means 1).
func robustWeights(scenarios []Scenario) []float64 {
	w := make([]float64, len(scenarios))
	total := 0.0
	for i := range scenarios {
		w[i] = scenarios[i].Weight
		if w[i] <= 0 {
			w[i] = 1
		}
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// DimensionRobust dimensions the window vector against a set of analytic
// scenarios instead of the single nominal operating point: every
// candidate is evaluated once per scenario on that scenario's perturbed
// model, and the search maximises either the worst-scenario power
// (RobustMinimax) or the weight-normalised mean power (RobustWeighted).
//
// The search is Dimension's: the same BoxScanner, holding one reusable
// Engine per scenario with its own warm-started AMVA state (committed
// together at every accepted base point). The resilient fallback chain
// rescues non-converging candidates per scenario, and opts.Context
// cancels the search with the best-so-far vector returned alongside the
// wrapped context error. Under opts.Workers > 1 the speculative-parallel
// pattern search stays bit-identical to the serial run, because every
// scenario engine re-seeds from its committed trajectory only. Under
// RobustMinimax one identity scenario reproduces Dimension bit for bit.
//
// A candidate that fails to converge under ANY scenario is infeasible:
// robust windows must be evaluable everywhere they claim to protect.
// opts.InitialWindows seeds the search; starting from a nominal-optimal
// vector guarantees the minimax result protects the worst case at least
// as well as the nominal choice does. opts.BufferLimits is not supported
// here (set it on the nominal Dimension run instead).
func DimensionRobust(n *netmodel.Network, scenarios []Scenario, kind RobustKind, opts Options) (*RobustResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		return nil, errors.New("core: DimensionRobust needs at least one scenario")
	}
	if kind != RobustMinimax && kind != RobustWeighted {
		return nil, fmt.Errorf("core: unknown robust kind %v", kind)
	}
	if opts.BufferLimits != nil {
		return nil, errors.New("core: DimensionRobust does not support BufferLimits")
	}
	if opts.Context != nil {
		opts.MVA.Context = opts.Context
	}
	if opts.MinScenarios > len(scenarios) {
		return nil, fmt.Errorf("core: quorum of %d exceeds the %d scenarios given", opts.MinScenarios, len(scenarios))
	}
	if opts.ExactEngine && opts.Oracles == nil {
		// One oracle cache for the whole run: scenario engines whose
		// perturbed models share a structure share a convolution lattice.
		opts.Oracles = NewOracleCache(0)
	}
	perturbed := make([]*netmodel.Network, len(scenarios))
	engines := make([]*Engine, len(scenarios))
	names := make([]string, len(scenarios))
	for i := range scenarios {
		p, err := scenarios[i].Apply(n)
		if err != nil {
			return nil, err
		}
		eng, err := NewEngine(p, opts)
		if err != nil {
			return nil, fmt.Errorf("core: scenario %q: %w", scenarios[i].Name, err)
		}
		perturbed[i] = p
		engines[i] = eng
		names[i] = scenarios[i].Name
	}
	health := newScenarioHealth(names, opts.MinScenarios, opts.DegradeAfter)
	scan := &BoxScanner{opts: opts, engines: engines, weights: robustWeights(scenarios), kind: kind, health: health}
	ckpt, resume, err := searchCheckpointing(n, opts, scenarios, kind.String())
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		ckpt.Aux = health.snapshotAux
	}
	if resume != nil {
		if err := health.restoreAux(resume.Aux); err != nil {
			return nil, err
		}
	}
	sres, searchErr := scan.search(n, ckpt, resume)
	if sres == nil {
		return nil, searchErr
	}

	res := &RobustResult{
		Windows:       sres.Best,
		Search:        sres,
		NonConverged:  scan.NonConverged(),
		Fallbacks:     scan.FallbackCounts(),
		WatchdogTrips: scan.WatchdogTrips(),
	}
	// Per-scenario metrics at the chosen windows, over the scenarios that
	// survived, each on a fresh engine with context-free options (as
	// Dimension reports its partial result). A scenario that fails HERE —
	// after the search accepted the windows — degrades like a mid-search
	// failure: recorded and excluded, quorum permitting, instead of
	// discarding the run.
	clean := contextFree(opts)
	res.ScenarioPower = make([]float64, len(scenarios))
	res.PerScenario = make([]*power.Metrics, len(scenarios))
	res.WorstPower = math.Inf(1)
	res.WorstScenario = -1
	weightedP := 0.0
	totalW := 0.0
	for i := range scenarios {
		if !health.isActive(i) {
			res.ScenarioPower[i] = math.NaN()
			continue
		}
		m, err := Evaluate(perturbed[i], sres.Best, clean)
		if err != nil {
			if derr := health.degrade(i, fmt.Sprintf("final evaluation at robust windows: %v", err)); derr != nil {
				return nil, fmt.Errorf("core: scenario %q at robust windows: %w", scenarios[i].Name, err)
			}
			res.ScenarioPower[i] = math.NaN()
			continue
		}
		p := criterionPower(m, opts.Objective)
		res.PerScenario[i] = m
		res.ScenarioPower[i] = p
		if p < res.WorstPower {
			res.WorstPower = p
			res.WorstScenario = i
		}
		weightedP += scan.weights[i] * p
		totalW += scan.weights[i]
	}
	if totalW > 0 {
		res.WeightedPower = weightedP / totalW
	}
	res.Degraded = health.degraded()
	return res, searchErr
}

// EvaluateScenarios returns the objective-criterion power of one window
// vector under each scenario — the per-scenario column a robust result is
// compared against (e.g. the nominal-optimal vector's exposure).
func EvaluateScenarios(n *netmodel.Network, scenarios []Scenario, windows numeric.IntVector, opts Options) ([]float64, error) {
	powers := make([]float64, len(scenarios))
	for i := range scenarios {
		p, err := scenarios[i].Apply(n)
		if err != nil {
			return nil, err
		}
		m, err := Evaluate(p, windows, opts)
		if err != nil {
			return nil, fmt.Errorf("core: scenario %q: %w", scenarios[i].Name, err)
		}
		powers[i] = criterionPower(m, opts.Objective)
	}
	return powers, nil
}
