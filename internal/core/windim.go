// Package core implements WINDIM (Ch. 4 §4.4): dimensioning of the
// end-to-end flow-control windows of a message-switched network so that
// the network power P = throughput/delay is maximised.
//
// WINDIM is the composition of three pieces built elsewhere in this
// repository: the Fig. 4.6 closed-chain transformation
// (internal/netmodel), a per-candidate performance evaluation by
// approximate mean value analysis (internal/mva), and a Hooke–Jeeves
// pattern search over integer window vectors (internal/pattern)
// initialised at Kleinrock's hop-count windows.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/power"
)

// enumNames is one option enum's wire-name table, indexed by value: the
// names the CLIs accept, the windimd job spec carries and the shard
// manifest serialises. what names the enum in errors.
type enumNames[T ~int] struct {
	what string
	wire []string
}

func (t enumNames[T]) parse(s string) (T, error) {
	for v, name := range t.wire {
		if name == s {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", t.what, s)
}

func (t enumNames[T]) name(v T) (string, error) {
	if v < 0 || int(v) >= len(t.wire) {
		return "", fmt.Errorf("unserialisable %s %d", t.what, int(v))
	}
	return t.wire[v], nil
}

// Evaluator selects the model solved for each candidate window vector.
type Evaluator int

const (
	// EvalSigmaMVA is the thesis's evaluator: the σ-heuristic
	// approximate MVA (linear in window sizes).
	EvalSigmaMVA Evaluator = iota
	// EvalSchweitzerMVA uses the Schweitzer–Bard approximate MVA.
	EvalSchweitzerMVA
	// EvalExactMVA uses the exact multichain recursion — exponential in
	// the number of classes, usable only for small networks; it is the
	// reference WINDIM is measured against in the ablation experiments.
	EvalExactMVA
	// EvalLinearizerMVA uses the Linearizer AMVA (Chandy–Neuse 1982), a
	// post-thesis refinement included for the ablation study.
	EvalLinearizerMVA
)

func (e Evaluator) String() string {
	switch e {
	case EvalSigmaMVA:
		return "sigma-mva"
	case EvalSchweitzerMVA:
		return "schweitzer-mva"
	case EvalExactMVA:
		return "exact-mva"
	case EvalLinearizerMVA:
		return "linearizer-mva"
	default:
		return fmt.Sprintf("Evaluator(%d)", int(e))
	}
}

var evaluatorNames = enumNames[Evaluator]{"evaluator", []string{
	EvalSigmaMVA:      "sigma",
	EvalSchweitzerMVA: "schweitzer",
	EvalExactMVA:      "exact",
	EvalLinearizerMVA: "linearizer",
}}

// ParseEvaluator maps a wire name (sigma, schweitzer, linearizer, exact)
// to its Evaluator.
func ParseEvaluator(s string) (Evaluator, error) { return evaluatorNames.parse(s) }

// EvaluatorName is ParseEvaluator's inverse.
func EvaluatorName(e Evaluator) (string, error) { return evaluatorNames.name(e) }

// ObjectiveKind selects what Dimension maximises.
type ObjectiveKind int

const (
	// ObjNetworkPower is the thesis's criterion: total throughput over
	// mean network delay.
	ObjNetworkPower ObjectiveKind = iota
	// ObjMinClassPower maximises the weakest class's own power
	// lambda_r/T_r — a max-min fairness variant: the aggregate criterion
	// will happily starve a long-route class to fatten the total
	// (visible in Table 4.12's (1,1,1,4) settings).
	ObjMinClassPower
	// ObjSumClassPower maximises the sum of per-class powers.
	ObjSumClassPower
)

func (o ObjectiveKind) String() string {
	switch o {
	case ObjNetworkPower:
		return "network-power"
	case ObjMinClassPower:
		return "min-class-power"
	case ObjSumClassPower:
		return "sum-class-power"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(o))
	}
}

var objectiveNames = enumNames[ObjectiveKind]{"objective", []string{
	ObjNetworkPower:  "power",
	ObjMinClassPower: "min-class",
	ObjSumClassPower: "sum-class",
}}

// ParseObjective maps a wire name (power, min-class, sum-class) to its
// ObjectiveKind.
func ParseObjective(s string) (ObjectiveKind, error) { return objectiveNames.parse(s) }

// ObjectiveName is ParseObjective's inverse.
func ObjectiveName(o ObjectiveKind) (string, error) { return objectiveNames.name(o) }

// criterionPower maps metrics to the power value the objective kind
// scores.
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

// objectiveValue maps metrics to the value the search minimises: 1 over
// the criterion power, +Inf where that power is not positive.
func objectiveValue(m *power.Metrics, kind ObjectiveKind) float64 {
	p := criterionPower(m, kind)
	if p <= 0 || math.IsNaN(p) {
		return math.Inf(1)
	}
	return 1 / p
}

// SearchKind selects the optimiser.
type SearchKind int

const (
	// PatternSearch is the thesis's Hooke–Jeeves direct search.
	PatternSearch SearchKind = iota
	// ExhaustiveSearch scans the whole window box; only feasible for
	// small networks, used to probe the global optimality of the pattern
	// search (as the thesis does for Fig. 4.9).
	ExhaustiveSearch
)

var searchNames = enumNames[SearchKind]{"search", []string{
	PatternSearch:    "pattern",
	ExhaustiveSearch: "exhaustive",
}}

// ParseSearch maps a wire name (pattern, exhaustive) to its SearchKind.
func ParseSearch(s string) (SearchKind, error) { return searchNames.parse(s) }

func (s SearchKind) String() string {
	if name, err := searchNames.name(s); err == nil {
		return name
	}
	return fmt.Sprintf("SearchKind(%d)", int(s))
}

// DefaultMaxWindow is the window bound of a search whose
// Options.MaxWindow is not positive: far above any power-optimal setting
// for the networks considered (optima shrink, not grow, with load).
const DefaultMaxWindow = 64

// Options configures WINDIM. The zero value reproduces the thesis:
// σ-heuristic MVA evaluations, pattern search from the hop-count windows
// with unit steps and KMAX = 2, windows bounded to [1, MaxWindow].
type Options struct {
	Evaluator Evaluator
	Search    SearchKind
	// Objective selects the criterion to maximise (default: the
	// thesis's network power).
	Objective ObjectiveKind
	// InitialWindows overrides the hop-count starting vector.
	InitialWindows numeric.IntVector
	// MaxWindow bounds every window from above; <= 0 means
	// DefaultMaxWindow.
	MaxWindow int
	// Workers parallelises candidate evaluation across goroutines: the
	// exhaustive search splits its box across Workers, and the pattern
	// search evaluates each pass's exploratory probes on Workers
	// goroutines ahead of its serial replay, in the replay's order and
	// about its current point, while committing accepts in serial order,
	// so its trajectory (windows, evaluations, cache behaviour) is
	// identical to the serial run. Analytic evaluations are pure functions
	// of the candidate, so both are safe. <= 1 is serial.
	Workers int
	// ExactEngine routes exact evaluations — the EvalExactMVA primary
	// path and the TierExact stage of the resilient fallback chain —
	// through a shared incremental convolution engine
	// (convolution.Engine): one normalisation-constant lattice per search,
	// grown to the bounding box of the candidates seen, answers each
	// candidate inside the box by slice reads instead of a fresh
	// exponential recursion. Convolution agrees with the exact MVA
	// recursion to ordinary rounding (~1e-12 relative), so enabling the
	// engine can move results within solver tolerance; it is off by
	// default to preserve the historical per-candidate trajectories
	// bit-for-bit. The lattice cache is rebuildable state: it is never
	// serialised into checkpoints, and a resumed run rebuilds it on
	// demand. Candidates whose own lattice exceeds the oracle's cap fall
	// through to mva.ExactMultichain exactly as without the engine.
	ExactEngine bool
	// ColdStart disables warm-starting the approximate solvers from the
	// last accepted base point. Warm starts change per-candidate values
	// only within the solver tolerance (the fixed point is the same);
	// ColdStart forces the exact legacy trajectory, at roughly the cold
	// sweep count per candidate.
	ColdStart bool
	// DisableFallback turns off the resilient solver chain: a candidate
	// whose primary fixed point returns mva.ErrNotConverged then fails
	// immediately (and is treated as infeasible by the search) instead of
	// being retried damped, by Linearizer, or by the exact recursion. The
	// chain is on by default because it only runs where the primary
	// solver has already failed — it cannot change any converging result.
	DisableFallback bool
	// Context, when non-nil, bounds the dimensioning run: it is threaded
	// through the pattern/exhaustive search and into the MVA fixed-point
	// loops, so both long searches and stuck solves honour deadlines. On
	// cancellation Dimension returns the best-so-far Result (when the
	// search had committed at least one base point) TOGETHER WITH a
	// non-nil error wrapping ctx.Err() — callers wanting partial answers
	// must check the Result before the error.
	Context context.Context
	// EvalTimeout arms the per-candidate watchdog: each candidate solve
	// gets a wall-clock allowance of max(EvalTimeout, 8× the rolling mean
	// of recent solve times); a solve that exceeds it is abandoned as
	// mva.ErrNotConverged and flows into the fallback chain (each tier
	// with a fresh allowance), so one pathological fixed point cannot
	// stall the whole run. Trips are reported in Result.WatchdogTrips.
	// Wall-clock deadlines trade bit-reproducibility across machines for
	// liveness, so the watchdog is off by default (<= 0). Ignored by the
	// iteration-free exact evaluator.
	EvalTimeout time.Duration
	// CheckpointPath, when non-empty, makes the pattern search durable:
	// its state (memo cache, best point, step, per-scenario progress for
	// DimensionRobust) is written durably to this file — one snapshot, then
	// one appended record per write — every CheckpointEvery commits (<= 0:
	// every commit) and at termination or cancellation. Only PatternSearch
	// supports checkpoints.
	CheckpointPath string
	// CheckpointEvery is the commit cadence of checkpoint writes.
	CheckpointEvery int
	// ResumePath, when non-empty, resumes from a checkpoint written by a
	// previous run of the SAME model and options: the memo cache is
	// preloaded and the search replays its trajectory out of it (warm
	// starts recommitted along the way), converging to a result
	// bit-identical to an uninterrupted run at any worker count. A hash
	// of the network and options is verified before any cached value is
	// used; a mismatch is an error. A missing file is also an error —
	// "resume" silently starting fresh would mask typos.
	ResumePath string
	// BufferLimits, when non-nil, constrains the search to window
	// vectors that cannot overflow the given per-node storage limits
	// even in the worst case: for every node i with limit K_i > 0, the
	// windows of all classes that can store messages at node i (source
	// and transit nodes of their route; the sink never stores) must sum
	// to at most K_i. This is §2.3's consistency rule — windows beyond
	// buffer capacity make end-to-end control "totally ineffective".
	// Length must equal the node count; entries <= 0 mean unlimited.
	BufferLimits []int
	// MVA carries tolerance/iteration settings for the approximate
	// evaluators (Method is overridden by Evaluator).
	MVA mva.Options
	// DegradeAfter enables strike-based scenario degradation in
	// DimensionRobust: a scenario whose evaluation fails to converge (even
	// after the fallback chain) on this many distinct candidates is
	// excluded from the rest of the run — with its reason recorded in
	// RobustResult.Degraded — instead of vetoing every candidate it
	// touches. 0 (the default) disables strike counting; under Workers > 1
	// the strike order can depend on speculative probe scheduling, so
	// enabling it may cost bit-reproducibility. Terminal (non-convergence)
	// evaluation errors degrade a scenario immediately regardless.
	DegradeAfter int
	// MinScenarios is the quorum DimensionRobust must retain: a
	// degradation that would leave fewer active scenarios aborts the run
	// instead of silently optimising against a hollowed-out set. <= 0
	// means 1.
	MinScenarios int

	// OnCommit, when non-nil, runs serially after every committed base
	// point of the pattern search (after warm-seed promotion), with the
	// accepted window vector and its objective value (1/power under the
	// chosen criterion). This is the progress stream of a long search: the
	// windimd service forwards each commit to its job event feed, and the
	// checkpoint tests use it to cancel a run after exactly K commits.
	OnCommit func(x numeric.IntVector, fx float64)
	// OracleBox, when non-nil, hard-bounds the convolution oracle of an
	// ExactEngine run to the given per-class corner: no candidate — shared
	// box or private fallback — may grow a lattice beyond it; candidates
	// outside the corner fall through to the exact MVA recursion. A slab
	// worker of the sharded exhaustive search (internal/shard) sets it to
	// its slab corner so every worker's memory footprint is bounded by the
	// slab it was assigned, not the full search box. The bound is
	// point-local, so it never changes the value computed for an in-box
	// candidate. A non-nil OracleBox forces a private (uncached) oracle.
	OracleBox numeric.IntVector
	// Oracles, when non-nil, shares convolution oracles across the engines
	// built from these options: DimensionRobust sets it so scenarios with
	// identical station/chain structure reuse one lattice, and the windimd
	// service passes one budgeted cache to every job so concurrent
	// searches over the same network share lattices under a global memory
	// budget. Nil with ExactEngine set builds a private unbounded cache.
	Oracles *OracleCache
}

// Result is the outcome of a WINDIM run.
type Result struct {
	// Windows is the dimensioned window vector E_opt.
	Windows numeric.IntVector
	// Metrics holds the performance at Windows.
	Metrics *power.Metrics
	// Search is the underlying optimiser trace.
	Search *pattern.Result
	// NonConverged counts candidate evaluations whose approximate MVA
	// fixed point failed to converge EVEN AFTER the fallback chain
	// (treated as infeasible points). Under Workers > 1 speculative
	// probes the committed trajectory never consumed are counted too, so
	// the tally can exceed the serial run's; the search trajectory itself
	// is unaffected.
	NonConverged int
	// Fallbacks tallies, per tier of the resilient chain, how many
	// candidate evaluations each tier answered (Fallbacks[TierPrimary] is
	// the ordinary converging majority). Like NonConverged, speculative
	// probes are included.
	Fallbacks FallbackCounts
	// WatchdogTrips counts candidate solves the per-candidate watchdog
	// (Options.EvalTimeout) cut short into the fallback chain.
	WatchdogTrips int64
}

// Evaluate solves the closed-chain model of the network at the given
// window vector and returns its power metrics. A nil windows vector uses
// the classes' own Window fields, as in netmodel's ClosedModel. It is a
// one-shot Engine, so the answer comes through the same solver and
// fallback chain as every search candidate.
func Evaluate(n *netmodel.Network, windows numeric.IntVector, opts Options) (*power.Metrics, error) {
	eng, err := NewEngine(n, opts)
	if err != nil {
		return nil, err
	}
	if windows == nil {
		windows = n.Windows()
	}
	return eng.Evaluate(windows)
}

// contextFree returns opts without its (possibly dead) context, for the
// evaluations that report a search's answer after the search ended.
func contextFree(opts Options) Options {
	opts.Context = nil
	opts.MVA.Context = nil
	return opts
}

// Dimension runs WINDIM on the network and returns the power-optimal
// window settings.
func Dimension(n *netmodel.Network, opts Options) (*Result, error) {
	scan, err := NewBoxScanner(n, opts)
	if err != nil {
		return nil, err
	}
	ckpt, resume, err := searchCheckpointing(n, opts, nil, "")
	if err != nil {
		return nil, err
	}
	sres, searchErr := scan.search(n, ckpt, resume)
	if sres == nil {
		return nil, searchErr
	}
	var metrics *power.Metrics
	if searchErr == nil {
		metrics, err = scan.engines[0].Evaluate(sres.Best)
	}
	if searchErr != nil || (err != nil && opts.Context != nil && opts.Context.Err() != nil) {
		// The engine's solvers carry the (now dead) context; evaluate the
		// best-so-far point on a fresh engine so the Result still reports
		// its metrics.
		metrics, err = Evaluate(n, sres.Best, contextFree(opts))
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Windows:       sres.Best,
		Metrics:       metrics,
		Search:        sres,
		NonConverged:  scan.NonConverged(),
		Fallbacks:     scan.FallbackCounts(),
		WatchdogTrips: scan.WatchdogTrips(),
	}, searchErr
}

// KleinrockWindows returns the hop-count window vector (E_r = number of
// hops of class r), the rule of [52] used both as WINDIM's starting point
// and as the baseline P_4431 column of Table 4.12.
func KleinrockWindows(n *netmodel.Network) numeric.IntVector {
	return n.HopVector()
}
