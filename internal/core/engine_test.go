package core

import (
	"math"
	"testing"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/topo"
)

// referenceEvaluate is the per-call evaluation the Engine replaced: build
// the closed model at the candidate and run the configured solver on it
// cold, with no prevalidation, workspace, sparse view or fallback chain.
func referenceEvaluate(n *netmodel.Network, windows numeric.IntVector, opts Options) (*power.Metrics, error) {
	model, sources, err := n.ClosedModel(windows)
	if err != nil {
		return nil, err
	}
	var sol *mva.Solution
	switch opts.Evaluator {
	case EvalExactMVA:
		sol, err = mva.ExactMultichain(model)
	case EvalSchweitzerMVA:
		mo := opts.MVA
		mo.Method = mva.Schweitzer
		sol, err = mva.Approximate(model, mo)
	case EvalLinearizerMVA:
		sol, err = mva.Linearizer(model, opts.MVA)
	default:
		mo := opts.MVA
		mo.Method = mva.SigmaHeuristic
		sol, err = mva.Approximate(model, mo)
	}
	if err != nil {
		return nil, err
	}
	return power.FromSolution(model, sol, sources)
}

func TestEngineMatchesEvaluate(t *testing.T) {
	n := topo.Canada2Class(15, 20)
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalSchweitzerMVA, EvalLinearizerMVA, EvalExactMVA} {
		opts := Options{Evaluator: ev}
		eng, err := NewEngine(n, opts)
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		for _, w := range []numeric.IntVector{{1, 1}, {3, 2}, {2, 5}, {3, 2}} {
			legacy, err := referenceEvaluate(n, w, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", ev, w, err)
			}
			got, err := eng.Evaluate(w)
			if err != nil {
				t.Fatalf("%v %v: %v", ev, w, err)
			}
			// With no committed warm seed the engine replays the legacy
			// path (workspace and prevalidation are bit-faithful), so the
			// metrics must agree exactly.
			if got.Power != legacy.Power || got.Throughput != legacy.Throughput || got.Delay != legacy.Delay {
				t.Errorf("%v %v: engine (P=%v, T=%v, D=%v) vs legacy (P=%v, T=%v, D=%v)",
					ev, w, got.Power, got.Throughput, got.Delay, legacy.Power, legacy.Throughput, legacy.Delay)
			}
			v, err := eng.ObjectiveValue(w, ObjNetworkPower)
			if err != nil {
				t.Fatal(err)
			}
			if v != objectiveValue(legacy, ObjNetworkPower) {
				t.Errorf("%v %v: objective %v vs legacy %v", ev, w, v, objectiveValue(legacy, ObjNetworkPower))
			}
		}
	}
}

func TestEngineCommitWarmStaysAtFixedPoint(t *testing.T) {
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Evaluate(numeric.IntVector{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Commit a neighbour and re-evaluate: the warm-seeded solve must land
	// on the same fixed point to solver tolerance.
	eng.Commit(numeric.IntVector{2, 3})
	warm, err := eng.Evaluate(numeric.IntVector{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Power-cold.Power) > 1e-4*cold.Power {
		t.Errorf("warm power %v drifted from cold %v", warm.Power, cold.Power)
	}
}

func TestEngineRejectsBadWindows(t *testing.T) {
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(numeric.IntVector{1}); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := eng.Evaluate(numeric.IntVector{-1, 2}); err == nil {
		t.Error("expected negative-window error")
	}
}

// raceEnabled is set by race_test.go; the race detector instruments
// allocations, so counting them is only meaningful without it.
var raceEnabled bool

func TestEngineObjectiveValueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	n := topo.Canada2Class(15, 15)
	eng, err := NewEngine(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := numeric.IntVector{3, 3}
	if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
			t.Fatal(err)
		}
	})
	// The hot path reuses pooled model copies, solver workspaces, and
	// metrics slices; a couple of incidental allocations (pool interface
	// boxing) are tolerated, bulk matrix work is not.
	if allocs > 4 {
		t.Errorf("ObjectiveValue allocates %v per call in steady state", allocs)
	}
}

// TestBoxScannerObjectiveAllocs: the scanner's objective adds nothing to
// the engines' allocation-free hot path, over one engine (no scenario
// health, no lock) and over three scenario engines.
func TestBoxScannerObjectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	n := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	nominal, err := NewBoxScanner(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capScale := []float64{1, 1, 1, 1, 1, 1, 1}
	capScale[topo.ChWT] = 0.5
	scenarios := []Scenario{
		{Name: "nominal"},
		{Name: "trunk-degraded", CapacityScale: capScale},
		{Name: "class4-surge", RateScale: []float64{1, 1, 1, 2}},
	}
	robust := &BoxScanner{
		weights: robustWeights(scenarios),
		kind:    RobustWeighted,
		health:  newScenarioHealth([]string{"nominal", "trunk-degraded", "class4-surge"}, 0, 0),
	}
	for i := range scenarios {
		p, err := scenarios[i].Apply(n)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, robust.opts)
		if err != nil {
			t.Fatal(err)
		}
		robust.engines = append(robust.engines, eng)
	}
	w := numeric.IntVector{4, 4, 3, 2}
	for _, c := range []struct {
		name string
		scan *BoxScanner
	}{{"nominal", nominal}, {"three scenarios", robust}} {
		if _, err := c.scan.objective(w); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.scan.objective(w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: objective allocates %v per candidate in steady state", c.name, allocs)
		}
	}
}

func dimensionTrajectory(t *testing.T, opts Options, s1, s2, s3, s4 float64, fourClass bool) *Result {
	t.Helper()
	var res *Result
	var err error
	if fourClass {
		res, err = Dimension(topo.Canada4Class(s1, s2, s3, s4), opts)
	} else {
		res, err = Dimension(topo.Canada2Class(s1, s2), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDimensionParallelPatternMatchesSerial(t *testing.T) {
	cases := []struct {
		fourClass      bool
		s1, s2, s3, s4 float64
	}{
		{false, 15, 15, 0, 0},
		{false, 7, 18, 0, 0},
		{true, 9.957, 4.419, 7.656, 7.968},
		{true, 20, 20, 20, 40},
	}
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalSchweitzerMVA} {
		for _, c := range cases {
			serial := dimensionTrajectory(t, Options{Evaluator: ev}, c.s1, c.s2, c.s3, c.s4, c.fourClass)
			for _, workers := range []int{2, 4, 8} {
				par := dimensionTrajectory(t, Options{Evaluator: ev, Workers: workers}, c.s1, c.s2, c.s3, c.s4, c.fourClass)
				if !par.Windows.Equal(serial.Windows) {
					t.Errorf("%v %+v workers=%d: windows %v vs serial %v", ev, c, workers, par.Windows, serial.Windows)
				}
				if par.Search.BestValue != serial.Search.BestValue {
					t.Errorf("%v %+v workers=%d: best value %v vs %v", ev, c, workers, par.Search.BestValue, serial.Search.BestValue)
				}
				if par.Search.Evaluations != serial.Search.Evaluations || par.Search.CacheHits != serial.Search.CacheHits {
					t.Errorf("%v %+v workers=%d: evals/hits %d/%d vs serial %d/%d", ev, c, workers,
						par.Search.Evaluations, par.Search.CacheHits, serial.Search.Evaluations, serial.Search.CacheHits)
				}
				if len(par.Search.BasePoints) != len(serial.Search.BasePoints) {
					t.Fatalf("%v %+v workers=%d: %d base points vs %d", ev, c, workers,
						len(par.Search.BasePoints), len(serial.Search.BasePoints))
				}
				for i := range serial.Search.BasePoints {
					if !par.Search.BasePoints[i].Equal(serial.Search.BasePoints[i]) {
						t.Errorf("%v %+v workers=%d: base point %d = %v vs %v", ev, c, workers, i,
							par.Search.BasePoints[i], serial.Search.BasePoints[i])
					}
				}
			}
		}
	}
}

func TestDimensionWarmMatchesColdWindows(t *testing.T) {
	// Warm-started candidate values agree with cold ones to solver
	// tolerance, so the dimensioned windows must come out identical.
	for _, s := range []float64{12.5, 20, 37.5, 75} {
		n := topo.Canada2Class(s, s)
		warm, err := Dimension(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Dimension(n, Options{ColdStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Windows.Equal(cold.Windows) {
			t.Errorf("S=%v: warm windows %v vs cold %v", s, warm.Windows, cold.Windows)
		}
		if math.Abs(warm.Metrics.Power-cold.Metrics.Power) > 1e-6*cold.Metrics.Power {
			t.Errorf("S=%v: warm power %v vs cold %v", s, warm.Metrics.Power, cold.Metrics.Power)
		}
	}
}

func BenchmarkEvaluateEngine(b *testing.B) {
	n := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	w := numeric.IntVector{4, 4, 3, 2}
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceEvaluate(n, w, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng, err := NewEngine(n, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ObjectiveValue(w, ObjNetworkPower); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDimensionWarmVsCold(b *testing.B) {
	n := topo.Canada2Class(20, 20)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Dimension(n, Options{ColdStart: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Dimension(n, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
