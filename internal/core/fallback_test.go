package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/topo"
)

// TestFallbackTierExact forces every iterative tier to fail (one sweep is
// never enough to meet a 1e-8 tolerance from a cold start) and checks the
// chain lands on the exact recursion, tagging tier and solver.
func TestFallbackTierExact(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalSchweitzerMVA, EvalLinearizerMVA} {
		eng, err := NewEngine(n, Options{
			Evaluator: ev,
			MVA:       mva.Options{MaxIter: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, tier, err := eng.EvaluateWithTier(numeric.IntVector{4, 4})
		if err != nil {
			t.Fatalf("%v: fallback chain failed: %v", ev, err)
		}
		if tier != TierExact {
			t.Fatalf("%v: answered by tier %v, want %v", ev, tier, TierExact)
		}
		if m == nil || m.Power <= 0 {
			t.Fatalf("%v: degenerate metrics %+v", ev, m)
		}
		counts := eng.FallbackCounts()
		if counts[TierExact] != 1 || counts.Rescued() != 1 {
			t.Fatalf("%v: counts %v, want one exact rescue", ev, counts)
		}
	}
}

// TestFallbackAgreesWithConverged checks the rescue is not just an answer
// but the RIGHT answer: the exact tier's metrics at a candidate must match
// a healthy solver's metrics at the same candidate.
func TestFallbackAgreesWithConverged(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	w := numeric.IntVector{4, 4}
	broken, err := NewEngine(n, Options{Evaluator: EvalSchweitzerMVA, MVA: mva.Options{MaxIter: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rescued, tier, err := broken.EvaluateWithTier(w)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierExact {
		t.Fatalf("tier %v, want exact", tier)
	}
	exact, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if diff := rescued.Power - exact.Power; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("rescued power %v vs exact %v", rescued.Power, exact.Power)
	}
}

// TestFallbackDisabled checks DisableFallback restores the old behaviour:
// the convergence failure surfaces unrescued.
func TestFallbackDisabled(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	eng, err := NewEngine(n, Options{
		Evaluator:       EvalSchweitzerMVA,
		MVA:             mva.Options{MaxIter: 1},
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, tier, err := eng.EvaluateWithTier(numeric.IntVector{4, 4})
	if !errors.Is(err, mva.ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	if tier != TierPrimary {
		t.Fatalf("tier %v on a disabled chain", tier)
	}
}

// TestFallbackSolverTag checks the Solution.Solver tier suffix on the
// damped retry: MaxIter large enough for the damped pass to converge is
// hard to force directly, so probe via mva directly that tags survive, and
// via the chain that exact runs carry the fallback marker.
func TestFallbackSolverTag(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	model, _, err := n.ClosedModel(numeric.IntVector{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mva.Approximate(model, mva.Options{Method: mva.Schweitzer})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Solver != "schweitzer" {
		t.Fatalf("primary solver tag %q", sol.Solver)
	}
	exact, err := mva.ExactMultichain(model)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Solver != "exact-mva" {
		t.Fatalf("exact solver tag %q", exact.Solver)
	}
	lin, err := mva.Linearizer(model, mva.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lin.Solver, "linearizer") {
		t.Fatalf("linearizer solver tag %q", lin.Solver)
	}
}

// TestDimensionThroughFallback is the acceptance scenario: a dimensioning
// run whose every candidate fails the primary (and damped, and Linearizer)
// solve still completes via the exact tier, and the Result records the
// rescues.
func TestDimensionThroughFallback(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	res, err := Dimension(n, Options{
		Evaluator: EvalSchweitzerMVA,
		MaxWindow: 8,
		MVA:       mva.Options{MaxIter: 1},
	})
	if err != nil {
		t.Fatalf("dimensioning did not survive the failing solver: %v", err)
	}
	if res.NonConverged != 0 {
		t.Fatalf("%d candidates left non-converged despite the chain", res.NonConverged)
	}
	if res.Fallbacks.Rescued() == 0 {
		t.Fatal("no rescues recorded")
	}
	if res.Fallbacks[TierPrimary] != 0 {
		t.Fatalf("primary tier answered %d times with a one-sweep budget", res.Fallbacks[TierPrimary])
	}
	// The rescued run must land on the same windows a healthy run finds.
	healthy, err := Dimension(n, Options{Evaluator: EvalSchweitzerMVA, MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Windows.Equal(healthy.Windows) {
		t.Fatalf("rescued optimum %v vs healthy %v", res.Windows, healthy.Windows)
	}
}

// countdownCtx cancels after a fixed number of Err() polls, making
// mid-search cancellation deterministic.
type countdownCtx struct {
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestDimensionCancelledBestSoFar checks the tentpole's cancellation
// contract end to end: a context that dies mid-search still yields the
// best window vector committed so far, with metrics, plus the ctx error.
func TestDimensionCancelledBestSoFar(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	// Enough polls for the initial evaluation and first commit (one
	// pattern-eval poll plus at most a few in-solver polls), far too few
	// for the search to finish (a full canada2 run makes 13+ polls).
	res, err := Dimension(n, Options{Context: &countdownCtx{remaining: 5}})
	if err == nil {
		t.Fatal("cancelled dimensioning returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Windows == nil {
		t.Fatalf("no best-so-far result: %+v", res)
	}
	if res.Metrics == nil || res.Metrics.Power <= 0 {
		t.Fatalf("best-so-far point has no usable metrics: %+v", res.Metrics)
	}
}

// TestDimensionCancelledBeforeStart: cancellation before any evaluation is
// terminal — no partial result exists to return.
func TestDimensionCancelledBeforeStart(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Dimension(n, Options{Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("result %+v from a never-started search", res)
	}
}

// TestDimensionUncancelledContext: a live context must not change the
// result at all.
func TestDimensionUncancelledContext(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	plain, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := Dimension(n, Options{Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Windows.Equal(ctxed.Windows) {
		t.Fatalf("context changed the optimum: %v vs %v", plain.Windows, ctxed.Windows)
	}
	if plain.Search.Evaluations != ctxed.Search.Evaluations {
		t.Fatalf("context changed the trajectory: %d vs %d evaluations",
			plain.Search.Evaluations, ctxed.Search.Evaluations)
	}
}

// failingSolverOptions make every iterative tier of the chain fail, so
// each candidate — and each report — is answered by the exact tier.
func failingSolverOptions() Options {
	return Options{Evaluator: EvalSchweitzerMVA, MaxWindow: 8, MVA: mva.Options{MaxIter: 1}}
}

// TestDimensionRobustReportsThroughFallback: the robust report evaluates
// the chosen windows through the same fallback chain the search used, so a
// run whose every candidate needs the chain still reports its one identity
// scenario instead of failing at the robust windows.
func TestDimensionRobustReportsThroughFallback(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	opts := failingSolverOptions()
	plain, err := Dimension(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{{Name: "nominal"}}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, opts)
	if err != nil {
		t.Fatalf("robust run failed at its report: %v", err)
	}
	if !res.Windows.Equal(plain.Windows) {
		t.Errorf("robust windows %v, Dimension %v", res.Windows, plain.Windows)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("identity scenario degraded: %+v", res.Degraded)
	}
	if res.PerScenario[0] == nil || res.PerScenario[0].Power <= 0 {
		t.Errorf("identity scenario has no usable metrics: %+v", res.PerScenario[0])
	}
	if _, err := EvaluateScenarios(n, scenarios, res.Windows, opts); err != nil {
		t.Errorf("EvaluateScenarios at the robust windows: %v", err)
	}
}

// TestDimensionPartialThroughFallback: a cancelled run reports its
// best-so-far point through the fallback chain too, so the partial result
// carries metrics even when no primary solve converges. Past k = 30 the
// search itself finishes, and a context that dies during the report must
// still not cost the finished run its result.
func TestDimensionPartialThroughFallback(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	plain, err := Dimension(n, failingSolverOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := 4; k <= 40; k++ {
		opts := failingSolverOptions()
		opts.Context = &countdownCtx{remaining: k}
		res, err := Dimension(n, opts)
		if (k <= 30 || err != nil) && !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: error %v does not wrap context.Canceled", k, err)
		}
		if res == nil || res.Windows == nil {
			t.Fatalf("k=%d: no best-so-far result", k)
		}
		// The hop-count start is already the optimum here, so every
		// best-so-far point is Dimension's answer.
		if !res.Windows.Equal(plain.Windows) {
			t.Errorf("k=%d: best-so-far %v, Dimension %v", k, res.Windows, plain.Windows)
		}
		if res.Metrics == nil || res.Metrics.Power <= 0 {
			t.Fatalf("k=%d: best-so-far %v has no usable metrics: %+v", k, res.Windows, res.Metrics)
		}
	}
}
