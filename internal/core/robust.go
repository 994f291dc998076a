package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mva"
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

func (k RobustKind) String() string {
	switch k {
	case RobustMinimax:
		return "minmax"
	case RobustWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("RobustKind(%d)", int(k))
	}
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
// The machinery is Dimension's, replicated per scenario: each scenario
// gets its own reusable Engine with its own warm-started AMVA state
// (committed together at every accepted base point), the resilient
// fallback chain rescues non-converging candidates per scenario, and
// opts.Context cancels the search with the best-so-far vector returned
// alongside the wrapped context error. Under opts.Workers > 1 the
// speculative-parallel pattern search stays bit-identical to the serial
// run, because every scenario engine re-seeds from its committed
// trajectory only.
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
	weights := robustWeights(scenarios)
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
	ckptOpts, resume, err := searchCheckpointing(n, opts, scenarios, kind.String())
	if err != nil {
		return nil, err
	}
	if ckptOpts != nil {
		ckptOpts.Aux = health.snapshotAux
	}
	if resume != nil {
		if err := health.restoreAux(resume.Aux); err != nil {
			return nil, err
		}
	}

	nCls := len(n.Classes)
	maxW := opts.MaxWindow
	if maxW <= 0 {
		maxW = 64
	}
	hi := numeric.NewIntVector(nCls)
	lo := numeric.NewIntVector(nCls)
	for i := range hi {
		hi[i] = maxW
		lo[i] = 1
	}

	var nonConverged atomic.Int64
	// objective returns the value the search minimises: the largest
	// per-scenario 1/power for minimax, or 1 over the weighted mean power
	// — both over the ACTIVE scenarios, with weights renormalised as
	// scenarios degrade. While every scenario stays healthy the value is a
	// pure function of (committed warm seeds, candidate), so the
	// speculative search stays deterministic; a degradation event changes
	// the objective for all later candidates, which is the documented
	// price of continuing past a dead scenario.
	objective := func(x numeric.IntVector) (float64, error) {
		worst := 0.0
		weightedP := 0.0
		totalW := 0.0
		evaluated := 0
		for i, eng := range engines {
			if !health.isActive(i) {
				continue
			}
			v, err := eng.ObjectiveValue(x, opts.Objective)
			if err != nil {
				if errors.Is(err, mva.ErrNotConverged) {
					nonConverged.Add(1)
					// The candidate is infeasible as before; repeated
					// failures can additionally retire the scenario itself
					// (opt-in via DegradeAfter).
					if derr := health.strike(i, err.Error()); derr != nil {
						return 0, derr
					}
					return math.Inf(1), nil
				}
				if opts.Context != nil && opts.Context.Err() != nil {
					// Cancellation is never a scenario's fault.
					return 0, err
				}
				// A terminal failure confined to one scenario: exclude the
				// scenario (quorum permitting) and keep dimensioning on
				// the rest, rather than abort the whole run.
				if derr := health.degrade(i, err.Error()); derr != nil {
					return 0, derr
				}
				continue
			}
			if math.IsInf(v, 1) {
				return math.Inf(1), nil
			}
			if v > worst {
				worst = v
			}
			weightedP += weights[i] / v
			totalW += weights[i]
			evaluated++
		}
		if evaluated == 0 {
			// Unreachable while the quorum holds; defensive for quorum 0
			// misconfiguration slipping through.
			return 0, errors.New("core: no active scenario evaluated the candidate")
		}
		if kind == RobustMinimax {
			return worst, nil
		}
		return totalW / weightedP, nil
	}

	var sres *pattern.Result
	switch opts.Search {
	case ExhaustiveSearch:
		for _, eng := range engines {
			eng.reserveScan(hi)
		}
		sres, err = pattern.Exhaustive(opts.Context, objective, lo, hi, 0, opts.Workers)
	default:
		start := opts.InitialWindows
		if start == nil {
			start = n.HopVector()
		}
		if len(start) != nCls {
			return nil, fmt.Errorf("core: initial window vector has %d entries for %d classes", len(start), nCls)
		}
		popts := pattern.Options{
			InitialStep: opts.InitialStep,
			Lo:          lo,
			Hi:          hi,
			MaxHalvings: opts.MaxHalvings,
			Workers:     opts.Workers,
			Context:     opts.Context,
			Checkpoint:  ckptOpts,
			Resume:      resume,
		}
		if engines[0].useWarm || opts.OnCommit != nil {
			popts.OnCommit = func(x numeric.IntVector, fx float64) {
				if engines[0].useWarm {
					// Degraded engines skip the warm re-seed: they answer no
					// further evaluations.
					for i, eng := range engines {
						if health.isActive(i) {
							eng.Commit(x)
						}
					}
				}
				if opts.OnCommit != nil {
					opts.OnCommit(x, fx)
				}
			}
		}
		sres, err = pattern.Search(objective, start, popts)
	}
	searchErr := err
	if searchErr != nil && (sres == nil || sres.Best == nil) {
		return nil, searchErr
	}
	if sres.Best == nil || math.IsInf(sres.BestValue, 1) {
		return nil, fmt.Errorf("core: no window setting feasible under every scenario (evaluator %v)", opts.Evaluator)
	}

	res := &RobustResult{
		Windows:      sres.Best,
		Search:       sres,
		NonConverged: int(nonConverged.Load()),
	}
	for _, eng := range engines {
		counts := eng.FallbackCounts()
		for t := range counts {
			res.Fallbacks[t] += counts[t]
		}
		res.WatchdogTrips += eng.WatchdogTrips()
	}
	// Per-scenario metrics at the chosen windows, over the scenarios that
	// survived. After a cancellation the engines carry a dead context, so
	// re-evaluate with a context-free options copy (as Dimension does for
	// its partial result). A scenario that fails HERE — after the search
	// accepted the windows — degrades like a mid-search failure: recorded
	// and excluded, quorum permitting, instead of discarding the run.
	clean := opts
	clean.Context = nil
	clean.MVA.Context = nil
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
		weightedP += weights[i] * p
		totalW += weights[i]
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

// criterionPower maps metrics to the power value the objective kind
// scores (the inverse of objectiveValue, without the infeasibility
// sentinel).
func criterionPower(m *power.Metrics, kind ObjectiveKind) float64 {
	switch kind {
	case ObjMinClassPower:
		return m.MinClassPower()
	case ObjSumClassPower:
		return m.SumClassPower()
	default:
		return m.Power
	}
}
