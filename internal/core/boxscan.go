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

// BoxScanner is the exhaustive-search workhorse factored out of Dimension
// so that other drivers — above all the slab workers of the sharded
// search (internal/shard) — can scan arbitrary sub-boxes of the window
// lattice against exactly the objective Dimension uses: the evaluation
// engine is built once, candidate values map mva.ErrNotConverged to +Inf
// (infeasible) with a running tally, and buffer-limit feasibility is
// applied before any solve.
//
// Determinism: exhaustive scans never commit base points, so the engine's
// warm-start seed stays empty and every candidate value is a pure
// function of the candidate alone. Scans of disjoint sub-boxes therefore
// compute values bit-identical to one scan of the union — the contract
// the sharded search's deterministic merge rests on.
type BoxScanner struct {
	opts         Options
	eng          *Engine
	feasible     func(numeric.IntVector) bool
	nonConverged atomic.Int64
	evaluations  atomic.Int64
}

// NewBoxScanner validates the network and builds the evaluation engine
// under the given options (Search-related fields are ignored; Context,
// Workers, Evaluator, ExactEngine, OracleBox, BufferLimits and MVA
// settings are honoured).
func NewBoxScanner(n *netmodel.Network, opts Options) (*BoxScanner, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opts.Context != nil {
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
	return &BoxScanner{opts: opts, eng: eng, feasible: feasible}, nil
}

// objective is the candidate evaluation Dimension and the sharded workers
// share: buffer-infeasible and non-converging candidates are +Inf, any
// other evaluation error aborts the scan.
func (b *BoxScanner) objective(x numeric.IntVector) (float64, error) {
	b.evaluations.Add(1)
	if b.feasible != nil && !b.feasible(x) {
		return math.Inf(1), nil
	}
	v, err := b.eng.ObjectiveValue(x, b.opts.Objective)
	if err != nil {
		if errors.Is(err, mva.ErrNotConverged) {
			b.nonConverged.Add(1)
			return math.Inf(1), nil
		}
		return 0, err
	}
	return v, nil
}

// Scan exhaustively evaluates the closed box [lo, hi] and returns the
// minimiser under the usual tie-break (equal values resolve to the
// earliest lattice point). The scan parallelises across Options.Workers
// and honours Options.Context. Under ExactEngine the convolution lattice
// is built once for the whole box before the first candidate.
func (b *BoxScanner) Scan(lo, hi numeric.IntVector) (*pattern.Result, error) {
	b.eng.reserveScan(hi)
	return pattern.Exhaustive(b.opts.Context, b.objective, lo, hi, 0, b.opts.Workers)
}

// Metrics evaluates the power metrics at windows on the scanner's engine
// — the same path Dimension reports its optimum through.
func (b *BoxScanner) Metrics(windows numeric.IntVector) (*power.Metrics, error) {
	return b.eng.Evaluate(windows)
}

// Evaluations counts candidate evaluations across all Scans (including
// buffer-infeasible candidates rejected before any solve).
func (b *BoxScanner) Evaluations() int { return int(b.evaluations.Load()) }

// NonConverged counts candidate evaluations that failed to converge even
// after the fallback chain, across all Scans so far.
func (b *BoxScanner) NonConverged() int { return int(b.nonConverged.Load()) }

// FallbackCounts reports the engine's per-tier evaluation tallies.
func (b *BoxScanner) FallbackCounts() FallbackCounts { return b.eng.FallbackCounts() }

// WatchdogTrips reports solves cut short by the per-candidate watchdog.
func (b *BoxScanner) WatchdogTrips() int64 { return b.eng.WatchdogTrips() }

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
