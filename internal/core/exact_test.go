package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/convolution"
	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// TestExactEngineMatchesDirect: the convolution oracle must reproduce the
// exact MVA recursion's metrics at every candidate of a small box, and the
// shared lattice must actually be serving (one engine, reused across
// candidates).
func TestExactEngineMatchesDirect(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	direct, err := NewEngine(n, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	engined, err := NewEngine(n, Options{Evaluator: EvalExactMVA, ExactEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	if engined.conv == nil {
		t.Fatal("ExactEngine option did not attach an oracle")
	}
	for w1 := 1; w1 <= 5; w1++ {
		for w2 := 1; w2 <= 5; w2++ {
			w := numeric.IntVector{w1, w2}
			md, err := direct.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			me, err := engined.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(me.Power-md.Power) / md.Power; rel > 1e-9 {
				t.Errorf("windows %v: engine power %v vs exact MVA %v (rel %v)", w, me.Power, md.Power, rel)
			}
			if rel := math.Abs(me.Delay-md.Delay) / md.Delay; rel > 1e-9 {
				t.Errorf("windows %v: engine delay %v vs exact MVA %v", w, me.Delay, md.Delay)
			}
		}
	}
	engined.conv.mu.Lock()
	built := engined.conv.eng != nil
	engined.conv.mu.Unlock()
	if !built {
		t.Error("oracle never built its shared lattice")
	}
}

// TestExactEngineDimension: a full WINDIM run with the engine lands on the
// same windows as the per-candidate exact recursion, for both searches.
func TestExactEngineDimension(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	for _, search := range []SearchKind{PatternSearch, ExhaustiveSearch} {
		base := Options{Evaluator: EvalExactMVA, Search: search, MaxWindow: 6}
		withEngine := base
		withEngine.ExactEngine = true
		rd, err := Dimension(n, base)
		if err != nil {
			t.Fatalf("%v direct: %v", search, err)
		}
		re, err := Dimension(n, withEngine)
		if err != nil {
			t.Fatalf("%v engine: %v", search, err)
		}
		if !rd.Windows.Equal(re.Windows) {
			t.Errorf("%v: engine windows %v vs direct %v", search, re.Windows, rd.Windows)
		}
		if rel := math.Abs(re.Metrics.Power-rd.Metrics.Power) / rd.Metrics.Power; rel > 1e-9 {
			t.Errorf("%v: engine power %v vs direct %v", search, re.Metrics.Power, rd.Metrics.Power)
		}
	}
}

// TestExactEngineParallelDeterministic: the engine-backed exhaustive and
// pattern searches must return the same result at any worker count (the
// oracle's answers are candidate-local, never box-history-dependent).
func TestExactEngineParallelDeterministic(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	var got []*Result
	for _, workers := range []int{1, 4} {
		res, err := Dimension(n, Options{
			Evaluator: EvalExactMVA, Search: PatternSearch,
			MaxWindow: 8, ExactEngine: true, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got = append(got, res)
	}
	if !got[0].Windows.Equal(got[1].Windows) {
		t.Errorf("serial windows %v vs parallel %v", got[0].Windows, got[1].Windows)
	}
	if got[0].Search.BestValue != got[1].Search.BestValue {
		t.Errorf("serial best value %v vs parallel %v", got[0].Search.BestValue, got[1].Search.BestValue)
	}
}

// TestExactEngineFallbackTier: with every iterative tier forced to fail,
// the exact rescue must come from the convolution oracle, tagged as such,
// and agree with the plain exact rescue.
func TestExactEngineFallbackTier(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	w := numeric.IntVector{4, 4}
	eng, err := NewEngine(n, Options{
		Evaluator:   EvalSchweitzerMVA,
		MVA:         mva.Options{MaxIter: 1},
		ExactEngine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, tier, err := eng.EvaluateWithTier(w)
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	if tier != TierExact {
		t.Fatalf("answered by tier %v, want %v", tier, TierExact)
	}
	eng.conv.mu.Lock()
	built := eng.conv.eng != nil
	eng.conv.mu.Unlock()
	if !built {
		t.Fatal("exact rescue did not come from the convolution oracle")
	}
	exact, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(m.Power - exact.Power); diff > 1e-9 {
		t.Fatalf("oracle-rescued power %v vs exact %v", m.Power, exact.Power)
	}
	// The solver tag distinguishes the convolution rescue from the MVA one.
	st := eng.pool.Get().(*evalState)
	defer eng.pool.Put(st)
	sol, tier2, err := eng.solve(st, w)
	if err != nil || tier2 != TierExact {
		t.Fatalf("re-solve: tier %v err %v", tier2, err)
	}
	if sol.Solver != "convolution+fallback" {
		t.Fatalf("solver tag %q, want convolution+fallback", sol.Solver)
	}
}

// TestExactEngineRobustSharedCache: DimensionRobust scenario engines with
// structurally identical perturbed models share one oracle, and the
// engine-backed robust run matches the plain one.
func TestExactEngineRobustSharedCache(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := []Scenario{
		{Name: "nominal", Weight: 2},
		{Name: "twin", Weight: 1}, // identical perturbation: same structure
	}
	base := Options{Evaluator: EvalExactMVA, MaxWindow: 6}
	rd, err := DimensionRobust(n, scenarios, RobustMinimax, base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewOracleCache(0)
	withEngine := base
	withEngine.ExactEngine = true
	withEngine.Oracles = cache
	re, err := DimensionRobust(n, scenarios, RobustMinimax, withEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Windows.Equal(re.Windows) {
		t.Errorf("engine windows %v vs direct %v", re.Windows, rd.Windows)
	}
	if rel := math.Abs(re.WorstPower-rd.WorstPower) / rd.WorstPower; rel > 1e-9 {
		t.Errorf("engine worst power %v vs direct %v", re.WorstPower, rd.WorstPower)
	}
	cache.mu.Lock()
	oracles := len(cache.m)
	cache.mu.Unlock()
	if oracles != 1 {
		t.Errorf("structurally identical scenarios built %d oracles, want 1 shared", oracles)
	}
}

// TestExactEngineOversizedCandidate: a candidate beyond the oracle's
// lattice cap must still be answered (by the exact recursion), identically
// to a run without the engine.
func TestExactEngineOversizedCandidate(t *testing.T) {
	n := topo.Canada4Class(10, 10, 10, 10)
	// 41^4 > exactOracleCap: the oracle declines, ExactMultichain answers.
	w := numeric.IntVector{40, 40, 40, 40}
	if _, err := numeric.LatticeSize(w, exactOracleCap); err == nil {
		t.Fatalf("test vector %v fits the oracle cap; pick a larger one", w)
	}
	engined, err := NewEngine(n, Options{Evaluator: EvalExactMVA, ExactEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	me, err := engined.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	md, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if me.Power != md.Power {
		t.Errorf("oversized candidate: engine-run power %v vs direct %v", me.Power, md.Power)
	}
}

// oracleHmax returns the box of an engine's shared convolution lattice, or
// nil while it is unbuilt.
func oracleHmax(e *Engine) numeric.IntVector {
	e.conv.mu.Lock()
	eng := e.conv.eng
	e.conv.mu.Unlock()
	if eng == nil {
		return nil
	}
	return eng.Hmax()
}

// TestRobustExhaustiveReservedMatchesLazy: DimensionRobust's exhaustive
// branch builds each scenario oracle's lattice at the full box before the
// scan. Its minimax and weighted results must equal, bit for bit, those of
// the same scan over engines whose lattices grew candidate by candidate.
func TestRobustExhaustiveReservedMatchesLazy(t *testing.T) {
	n := topo.Canada4Class(10, 10, 10, 10)
	scenarios := twoScenarioSet(0.4)
	const maxW = 4
	lo := numeric.IntVector{1, 1, 1, 1}
	hi := numeric.IntVector{maxW, maxW, maxW, maxW}
	for _, kind := range []RobustKind{RobustMinimax, RobustWeighted} {
		opts := Options{
			Evaluator: EvalExactMVA, ExactEngine: true, Search: ExhaustiveSearch,
			MaxWindow: maxW, Workers: 2, Oracles: NewOracleCache(0),
		}
		got, err := DimensionRobust(n, scenarios, kind, opts)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}

		// The reference: the robust objective over lazily grown oracles.
		lazy := opts
		lazy.Oracles = NewOracleCache(0)
		weights := robustWeights(scenarios)
		engines := make([]*Engine, len(scenarios))
		for i := range scenarios {
			p, err := scenarios[i].Apply(n)
			if err != nil {
				t.Fatal(err)
			}
			if engines[i], err = NewEngine(p, lazy); err != nil {
				t.Fatal(err)
			}
		}
		objective := func(x numeric.IntVector) (float64, error) {
			worst, weightedP, totalW := 0.0, 0.0, 0.0
			for i, eng := range engines {
				v, err := eng.ObjectiveValue(x, lazy.Objective)
				if err != nil {
					return 0, err
				}
				if math.IsInf(v, 1) {
					return v, nil
				}
				worst = math.Max(worst, v)
				weightedP += weights[i] / v
				totalW += weights[i]
			}
			if kind == RobustMinimax {
				return worst, nil
			}
			return totalW / weightedP, nil
		}
		want, err := pattern.Exhaustive(context.Background(), objective, lo, hi, 0, lazy.Workers)
		if err != nil {
			t.Fatalf("%v lazy: %v", kind, err)
		}

		if !got.Windows.Equal(want.Best) {
			t.Errorf("%v: reserved windows %v, lazy %v", kind, got.Windows, want.Best)
		}
		if math.Float64bits(got.Search.BestValue) != math.Float64bits(want.BestValue) {
			t.Errorf("%v: reserved best value %v, lazy %v", kind, got.Search.BestValue, want.BestValue)
		}
		if got.Search.Evaluations != want.Evaluations {
			t.Errorf("%v: reserved evaluations %d, lazy %d", kind, got.Search.Evaluations, want.Evaluations)
		}
		for _, e := range opts.Oracles.m {
			if h := e.oracle.eng.Hmax(); !h.Equal(hi) {
				t.Errorf("%v: reserved oracle box %v, want %v", kind, h, hi)
			}
		}
	}
}

// TestSlabScanReservesCorner: a slab-shaped scan (OracleBox = the slab
// corner, one stride per Scan) builds the oracle's lattice at the corner
// on its first stride, and later strides never grow it.
func TestSlabScanReservesCorner(t *testing.T) {
	n := topo.Canada4Class(10, 10, 10, 10)
	lo := numeric.IntVector{1, 1, 3, 1}
	corner := numeric.IntVector{5, 5, 5, 4}
	scanner, err := NewBoxScanner(n, Options{Evaluator: EvalExactMVA, ExactEngine: true, OracleBox: corner.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for v := lo[2]; v <= corner[2]; v++ {
		sLo, sHi := lo.Clone(), corner.Clone()
		sLo[2], sHi[2] = v, v
		if _, err := scanner.Scan(sLo, sHi); err != nil {
			t.Fatalf("stride %d: %v", v, err)
		}
		if h := oracleHmax(scanner.eng); !h.Equal(corner) {
			t.Fatalf("after stride %d the oracle box is %v, want the corner %v", v, h, corner)
		}
	}
}

// TestEstimateOracleBytesCoversEngine keeps windimd admission
// conservative: the estimate for a maximum window w must cover what an
// oracle engine actually retains once its lattice spans the w box.
func TestEstimateOracleBytesCoversEngine(t *testing.T) {
	n := topo.Canada4Class(10, 10, 10, 10)
	eng, err := NewEngine(n, Options{Evaluator: EvalExactMVA, ExactEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8, 10, 16} {
		est, err := EstimateOracleBytes(n, w)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := convolution.NewEngine(eng.ref, numeric.IntVector{1, 1, 1, 1}, convolution.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ce.EnsureBox(numeric.IntVector{w, w, w, w}); err != nil {
			t.Fatal(err)
		}
		if got := ce.MemoryBytes(); est < got {
			t.Errorf("w=%d: estimate %d bytes < retained %d bytes", w, est, got)
		}
	}
}

// TestReserveFailureKeepsOracleAlive: a reservation the engine cannot
// honour (here, a box beyond the slab bound) leaves the oracle unbuilt but
// alive, so lazy growth serves the next candidate as before.
func TestReserveFailureKeepsOracleAlive(t *testing.T) {
	eng, err := NewEngine(topo.Canada4Class(10, 10, 10, 10), Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	o := newConvOracle(eng.ref, 1, numeric.IntVector{3, 3, 3, 3})
	o.reserve(numeric.IntVector{4, 4, 4, 4})
	if o.dead || o.eng != nil {
		t.Fatalf("failed reservation: dead=%v built=%v, want alive and unbuilt", o.dead, o.eng != nil)
	}
	if _, err := o.sharedMeans(numeric.IntVector{2, 2, 2, 2}); err != nil {
		t.Fatalf("lazy growth after a failed reservation: %v", err)
	}
	if _, err := o.sharedMeans(numeric.IntVector{4, 4, 4, 4}); !errors.Is(err, convolution.ErrBoxBounded) {
		t.Fatalf("query beyond the bound: err = %v, want ErrBoxBounded", err)
	}
}
