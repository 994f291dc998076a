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
)

// BoxScanner runs every WINDIM search: Dimension, DimensionRobust and the
// slab workers of the sharded search (internal/shard) all cost candidates
// through its objective. It holds one evaluation Engine per scenario,
// built once — exactly one outside DimensionRobust. Candidate values map
// mva.ErrNotConverged to +Inf (infeasible) with a running tally, and
// buffer-limit feasibility is applied before any solve.
//
// Determinism: exhaustive scans never commit base points, so the engines'
// warm-start seeds stay empty and every candidate value is a pure
// function of the candidate alone. Scans of disjoint sub-boxes therefore
// compute values bit-identical to one scan of the union — the contract
// the sharded search's deterministic merge rests on.
type BoxScanner struct {
	opts    Options
	engines []*Engine
	// weights are the normalised scenario weights and kind the robust
	// criterion; over one engine both leave its value unchanged.
	weights []float64
	kind    RobustKind
	// health tracks scenario degradation in a DimensionRobust run; nil
	// otherwise.
	health       *scenarioHealth
	feasible     func(numeric.IntVector) bool
	nonConverged atomic.Int64
	evaluations  atomic.Int64
}

// NewBoxScanner validates the network and builds the evaluation engine
// under the given options (Scan ignores the Search-related fields; Context,
// Workers, Evaluator, ExactEngine, OracleBox, BufferLimits and MVA
// settings are honoured).
func NewBoxScanner(n *netmodel.Network, opts Options) (*BoxScanner, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opts.Context != nil {
		// Thread the deadline into the MVA fixed-point loops too, so a
		// single stuck solve cannot outlive the search's cancellation.
		opts.MVA.Context = opts.Context
	}
	feasible, err := bufferFeasibility(n, opts.BufferLimits)
	if err != nil {
		return nil, err
	}
	eng, err := NewEngine(n, opts)
	if err != nil {
		return nil, err
	}
	return &BoxScanner{opts: opts, engines: []*Engine{eng}, weights: []float64{1}, feasible: feasible}, nil
}

func (b *BoxScanner) active(i int) bool { return b.health == nil || b.health.isActive(i) }

// objective is the value the search minimises: the largest per-scenario
// 1/power for RobustMinimax, or 1 over the weighted mean power — both over
// the ACTIVE scenarios, with weights renormalised as scenarios degrade.
// Over one engine that is the engine's own value. Buffer-infeasible
// candidates, and candidates that fail to converge under any scenario, are
// +Inf. While every scenario stays healthy the value is a pure function of
// (committed warm seeds, candidate), so the speculative search stays
// deterministic; a degradation event changes the objective for all later
// candidates, which is the documented price of continuing past a dead
// scenario.
func (b *BoxScanner) objective(x numeric.IntVector) (float64, error) {
	b.evaluations.Add(1)
	if b.feasible != nil && !b.feasible(x) {
		return math.Inf(1), nil
	}
	worst, weightedP, totalW := 0.0, 0.0, 0.0
	evaluated := 0
	for i, eng := range b.engines {
		if !b.active(i) {
			continue
		}
		v, err := eng.ObjectiveValue(x, b.opts.Objective)
		if err != nil {
			if errors.Is(err, mva.ErrNotConverged) {
				b.nonConverged.Add(1)
				// The candidate is infeasible; repeated failures can
				// additionally retire the scenario itself (opt-in via
				// DegradeAfter).
				if b.health != nil {
					if derr := b.health.strike(i, err.Error()); derr != nil {
						return 0, derr
					}
				}
				return math.Inf(1), nil
			}
			if b.health == nil || (b.opts.Context != nil && b.opts.Context.Err() != nil) {
				// Cancellation is never a scenario's fault, and outside a
				// robust run there is no scenario to exclude.
				return 0, err
			}
			// A terminal failure confined to one scenario: exclude the
			// scenario (quorum permitting) and keep dimensioning on the
			// rest, rather than abort the whole run.
			if derr := b.health.degrade(i, err.Error()); derr != nil {
				return 0, derr
			}
			continue
		}
		if math.IsInf(v, 1) {
			return v, nil
		}
		if v > worst {
			worst = v
		}
		weightedP += b.weights[i] / v
		totalW += b.weights[i]
		evaluated++
	}
	if evaluated == 0 {
		// Unreachable while the quorum holds; defensive for quorum 0
		// misconfiguration slipping through.
		return 0, errors.New("core: no active scenario evaluated the candidate")
	}
	if b.kind == RobustMinimax {
		return worst, nil
	}
	return totalW / weightedP, nil
}

// search runs the configured optimiser over the box [1, MaxWindow] of
// network n: an exhaustive Scan, or the pattern search from
// InitialWindows (else the hop counts, else all-ones when buffer limits
// reject the start) whose commits re-seed every active engine before
// Options.OnCommit runs. A cancelled search returns its best-so-far point
// together with the error; any other error, a cancellation before the
// first commit, or a box with no feasible point returns a nil result.
func (b *BoxScanner) search(n *netmodel.Network, ckpt *pattern.CheckpointOptions, resume *pattern.Checkpoint) (*pattern.Result, error) {
	opts := b.opts
	nCls := len(n.Classes)
	maxW := opts.MaxWindow
	if maxW <= 0 {
		maxW = 64
	}
	lo := numeric.NewIntVector(nCls)
	hi := numeric.NewIntVector(nCls)
	for i := range hi {
		lo[i], hi[i] = 1, maxW
	}
	var sres *pattern.Result
	var err error
	if opts.Search == ExhaustiveSearch {
		sres, err = b.Scan(lo, hi)
	} else {
		start := opts.InitialWindows
		if start == nil {
			start = n.HopVector()
		}
		if len(start) != nCls {
			return nil, fmt.Errorf("core: initial window vector has %d entries for %d classes", len(start), nCls)
		}
		if b.feasible != nil && !b.feasible(start) {
			// The hop-count start can violate tight buffer limits; fall
			// back to the all-ones vector, the smallest live setting.
			if !b.feasible(lo) {
				return nil, fmt.Errorf("core: buffer limits admit no window setting (even all-ones overflows some node)")
			}
			start = lo.Clone()
		}
		popts := pattern.Options{
			InitialStep: opts.InitialStep,
			Lo:          lo,
			Hi:          hi,
			MaxHalvings: opts.MaxHalvings,
			Workers:     opts.Workers,
			Context:     opts.Context,
			Checkpoint:  ckpt,
			Resume:      resume,
		}
		if b.engines[0].useWarm || opts.OnCommit != nil {
			popts.OnCommit = func(x numeric.IntVector, fx float64) {
				// Degraded engines skip the warm re-seed: they answer no
				// further evaluations.
				for i, eng := range b.engines {
					if b.active(i) {
						eng.Commit(x)
					}
				}
				if opts.OnCommit != nil {
					opts.OnCommit(x, fx)
				}
			}
		}
		sres, err = pattern.Search(b.objective, start, popts)
	}
	if err != nil && (sres == nil || sres.Best == nil) {
		return nil, err
	}
	if sres.Best == nil || math.IsInf(sres.BestValue, 1) {
		return nil, fmt.Errorf("core: no feasible window setting found (evaluator %v)", opts.Evaluator)
	}
	return sres, err
}

// Scan exhaustively evaluates the closed box [lo, hi] and returns the
// minimiser under the usual tie-break (equal values resolve to the
// earliest lattice point). The scan parallelises across Options.Workers
// and honours Options.Context. Under ExactEngine every engine's
// convolution lattice is built once for the whole box before the first
// candidate.
func (b *BoxScanner) Scan(lo, hi numeric.IntVector) (*pattern.Result, error) {
	for _, eng := range b.engines {
		eng.reserveScan(hi)
	}
	return pattern.Exhaustive(b.opts.Context, b.objective, lo, hi, 0, b.opts.Workers)
}

// Evaluations counts candidate evaluations across all Scans (including
// buffer-infeasible candidates rejected before any solve).
func (b *BoxScanner) Evaluations() int { return int(b.evaluations.Load()) }

// NonConverged counts candidate evaluations that failed to converge even
// after the fallback chain, across all Scans so far.
func (b *BoxScanner) NonConverged() int { return int(b.nonConverged.Load()) }

// FallbackCounts sums the engines' per-tier evaluation tallies.
func (b *BoxScanner) FallbackCounts() FallbackCounts {
	var c FallbackCounts
	for _, eng := range b.engines {
		counts := eng.FallbackCounts()
		for t := range counts {
			c[t] += counts[t]
		}
	}
	return c
}

// WatchdogTrips sums the engines' solves cut short by the per-candidate
// watchdog.
func (b *BoxScanner) WatchdogTrips() int64 {
	var trips int64
	for _, eng := range b.engines {
		trips += eng.WatchdogTrips()
	}
	return trips
}

// bufferFeasibility compiles Options.BufferLimits into the §2.3
// consistency predicate: for every node with a storage limit, the windows
// of all classes that can store messages there (every route node except
// the sink) must fit. A nil limits slice means no constraint (nil
// predicate).
func bufferFeasibility(n *netmodel.Network, limits []int) (func(numeric.IntVector) bool, error) {
	if limits == nil {
		return nil, nil
	}
	if len(limits) != len(n.Nodes) {
		return nil, fmt.Errorf("core: %d buffer limits for %d nodes", len(limits), len(n.Nodes))
	}
	// storers[i] lists the classes that can store messages at node i
	// (every route node except the sink).
	storers := make([][]int, len(n.Nodes))
	for r := range n.Classes {
		nodes, err := n.RouteNodes(r)
		if err != nil {
			return nil, err
		}
		for _, v := range nodes[:len(nodes)-1] {
			storers[v] = append(storers[v], r)
		}
	}
	return func(x numeric.IntVector) bool {
		for i, k := range limits {
			if k <= 0 {
				continue
			}
			sum := 0
			for _, r := range storers[i] {
				sum += x[r]
			}
			if sum > k {
				return false
			}
		}
		return true
	}, nil
}
