package core

import (
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/topo"
)

func TestEnumStrings(t *testing.T) {
	if EvalSigmaMVA.String() != "sigma-mva" || EvalSchweitzerMVA.String() != "schweitzer-mva" ||
		EvalExactMVA.String() != "exact-mva" || Evaluator(7).String() == "" {
		t.Error("Evaluator strings wrong")
	}
	if PatternSearch.String() != "pattern" || ExhaustiveSearch.String() != "exhaustive" ||
		SearchKind(7).String() == "" {
		t.Error("SearchKind strings wrong")
	}
}

// TestEnumWireNames pins the wire names: the shard manifest serialises
// them (shard.FormatVersion depends on them), and the windimd job tests
// match the parse errors.
func TestEnumWireNames(t *testing.T) {
	for e, want := range map[Evaluator]string{
		EvalSigmaMVA: "sigma", EvalSchweitzerMVA: "schweitzer", EvalLinearizerMVA: "linearizer", EvalExactMVA: "exact",
	} {
		if got, err := EvaluatorName(e); err != nil || got != want {
			t.Errorf("EvaluatorName(%v) = %q, %v; want %q", e, got, err, want)
		}
		if got, err := ParseEvaluator(want); err != nil || got != e {
			t.Errorf("ParseEvaluator(%q) = %v, %v; want %v", want, got, err, e)
		}
	}
	for o, want := range map[ObjectiveKind]string{ObjNetworkPower: "power", ObjMinClassPower: "min-class", ObjSumClassPower: "sum-class"} {
		if got, err := ObjectiveName(o); err != nil || got != want {
			t.Errorf("ObjectiveName(%v) = %q, %v; want %q", o, got, err, want)
		}
		if got, err := ParseObjective(want); err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", want, got, err, o)
		}
	}
	for k, want := range map[RobustKind]string{RobustMinimax: "minmax", RobustWeighted: "weighted"} {
		if got, err := ParseRobustKind(want); err != nil || got != k {
			t.Errorf("ParseRobustKind(%q) = %v, %v; want %v", want, got, err, k)
		}
	}
	for s, want := range map[SearchKind]string{PatternSearch: "pattern", ExhaustiveSearch: "exhaustive"} {
		if got, err := ParseSearch(want); err != nil || got != s {
			t.Errorf("ParseSearch(%q) = %v, %v; want %v", want, got, err, s)
		}
	}
	if _, err := EvaluatorName(Evaluator(7)); err == nil {
		t.Error("out-of-range evaluator named")
	}
	if _, err := ObjectiveName(ObjectiveKind(-1)); err == nil {
		t.Error("negative objective named")
	}
	// The String forms are not wire names, and nothing parses the empty
	// string: callers map "" to their own default first.
	for _, s := range []string{"", "sigma-mva", "network-power"} {
		if _, err := ParseEvaluator(s); err == nil {
			t.Errorf("ParseEvaluator(%q) accepted", s)
		}
		if _, err := ParseObjective(s); err == nil {
			t.Errorf("ParseObjective(%q) accepted", s)
		}
		if _, err := ParseRobustKind(s); err == nil {
			t.Errorf("ParseRobustKind(%q) accepted", s)
		}
		if _, err := ParseSearch(s); err == nil {
			t.Errorf("ParseSearch(%q) accepted", s)
		}
	}
	if _, err := ParseEvaluator("magic"); err == nil || err.Error() != `unknown evaluator "magic"` {
		t.Errorf("evaluator error %v", err)
	}
	if _, err := ParseObjective("profit"); err == nil || err.Error() != `unknown objective "profit"` {
		t.Errorf("objective error %v", err)
	}
}

func TestEvaluateCanada2(t *testing.T) {
	n := topo.Canada2Class(18, 18)
	m, err := Evaluate(n, numeric.IntVector{4, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Throughput below both the offered 36 msg/s and the aggregate
	// bottleneck 50 msg/s; positive power in the paper's range.
	if m.Throughput <= 0 || m.Throughput >= 36 {
		t.Errorf("throughput = %v", m.Throughput)
	}
	if m.Power < 100 || m.Power > 300 {
		t.Errorf("power = %v outside plausible range", m.Power)
	}
	// Symmetric classes: symmetric per-class results.
	if math.Abs(m.ClassThroughput[0]-m.ClassThroughput[1]) > 1e-6 {
		t.Errorf("asymmetric class throughputs %v", m.ClassThroughput)
	}
	if math.Abs(m.ClassDelay[0]-m.ClassDelay[1]) > 1e-6 {
		t.Errorf("asymmetric class delays %v", m.ClassDelay)
	}
}

// TestEvaluateNilWindows pins the nil convention Evaluate shares with
// netmodel's ClosedModel: nil means the network's own windows.
func TestEvaluateNilWindows(t *testing.T) {
	n := topo.Canada2Class(18, 18)
	n.Classes[0].Window, n.Classes[1].Window = 5, 3
	for _, ev := range []Evaluator{EvalSigmaMVA, EvalExactMVA} {
		got, err := Evaluate(n, nil, Options{Evaluator: ev})
		if err != nil {
			t.Fatalf("%v: nil windows: %v", ev, err)
		}
		want, err := Evaluate(n, n.Windows(), Options{Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Power) != math.Float64bits(want.Power) {
			t.Errorf("%v: nil windows power %v, n.Windows() power %v", ev, got.Power, want.Power)
		}
	}
}

func TestEvaluateEvaluatorsAgreeRoughly(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	w := numeric.IntVector{3, 3}
	sigma, err := Evaluate(n, w, Options{Evaluator: EvalSigmaMVA})
	if err != nil {
		t.Fatal(err)
	}
	schw, err := Evaluate(n, w, Options{Evaluator: EvalSchweitzerMVA})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Evaluate(n, w, Options{Evaluator: EvalExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]float64{"sigma": sigma.Power, "schweitzer": schw.Power} {
		rel := math.Abs(m-exact.Power) / exact.Power
		if rel > 0.08 {
			t.Errorf("%s power %v vs exact %v (rel %v)", name, m, exact.Power, rel)
		}
	}
}

func TestDimensionSymmetricLoads(t *testing.T) {
	// Table 4.7's first property: symmetric class loadings give
	// symmetric optimal windows.
	for _, s := range []float64{15, 25, 50} {
		n := topo.Canada2Class(s, s)
		res, err := Dimension(n, Options{})
		if err != nil {
			t.Fatalf("S=%v: %v", s, err)
		}
		if res.Windows[0] != res.Windows[1] {
			t.Errorf("S=%v: asymmetric windows %v", s, res.Windows)
		}
		if res.Metrics.Power <= 0 {
			t.Errorf("S=%v: power %v", s, res.Metrics.Power)
		}
	}
}

func TestDimensionWindowsShrinkWithLoad(t *testing.T) {
	// Table 4.7's second property: heavier traffic needs smaller windows.
	low, err := Dimension(topo.Canada2Class(12.5, 12.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Dimension(topo.Canada2Class(75, 75), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if high.Windows[0] >= low.Windows[0] {
		t.Errorf("windows did not shrink: %v at low load, %v at high", low.Windows, high.Windows)
	}
	if high.Metrics.Power <= low.Metrics.Power {
		t.Errorf("max power did not grow with load: %v -> %v", low.Metrics.Power, high.Metrics.Power)
	}
}

func TestDimensionMatchesExhaustive(t *testing.T) {
	// The pattern search lands within 1% of the global optimum of its
	// own objective on the 2-class example (a symmetric start can miss a
	// diagonal move by a sliver — a limitation Hooke–Jeeves shares with
	// the thesis's APL search).
	n := topo.Canada2Class(20, 20)
	ps, err := Dimension(n, Options{MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Dimension(n, Options{Search: ExhaustiveSearch, MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Search.BestValue > ex.Search.BestValue*1.01 {
		t.Errorf("pattern %v (F=%v) worse than exhaustive %v (F=%v)",
			ps.Windows, ps.Search.BestValue, ex.Windows, ex.Search.BestValue)
	}
	if ps.Search.Evaluations >= ex.Search.Evaluations {
		t.Errorf("pattern used %d evaluations, exhaustive %d", ps.Search.Evaluations, ex.Search.Evaluations)
	}
}

func TestDimensionBeatsKleinrockOn4Class(t *testing.T) {
	// Table 4.12's headline: WINDIM beats the (4,4,3,1) hop-count rule
	// when classes interact heavily.
	n := topo.Canada4Class(20, 20, 20, 40)
	res, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kw := KleinrockWindows(n)
	if !kw.Equal(numeric.IntVector{4, 4, 3, 1}) {
		t.Fatalf("KleinrockWindows = %v, want (4,4,3,1)", kw)
	}
	base, err := Evaluate(n, kw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Power <= base.Power*1.2 {
		t.Errorf("WINDIM power %v does not clearly beat Kleinrock %v", res.Metrics.Power, base.Power)
	}
}

func TestDimensionExactEvaluatorSmall(t *testing.T) {
	n := topo.Canada2Class(18, 18)
	res, err := Dimension(n, Options{Evaluator: EvalExactMVA, MaxWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows[0] != res.Windows[1] {
		t.Errorf("exact-MVA windows asymmetric: %v", res.Windows)
	}
}

func TestDimensionInitialWindowOverride(t *testing.T) {
	n := topo.Canada2Class(25, 25)
	res, err := Dimension(n, Options{InitialWindows: numeric.IntVector{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Different starts converge to equally good settings on this smooth
	// landscape.
	if math.Abs(res.Search.BestValue-def.Search.BestValue) > 0.02*def.Search.BestValue {
		t.Errorf("start sensitivity: F=%v from (8,8) vs F=%v from hops", res.Search.BestValue, def.Search.BestValue)
	}
	if _, err := Dimension(n, Options{InitialWindows: numeric.IntVector{1}}); err == nil {
		t.Error("expected dimension error for wrong-length initial windows")
	}
}

func TestDimensionInvalidNetwork(t *testing.T) {
	n := topo.Canada2Class(10, 10)
	n.Channels[0].Capacity = 0
	if _, err := Dimension(n, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := Evaluate(n, numeric.IntVector{1, 1}, Options{}); err == nil {
		t.Fatal("expected validation error from Evaluate")
	}
}

func TestDimensionParallelExhaustiveMatchesSerial(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	serial, err := Dimension(n, Options{Search: ExhaustiveSearch, MaxWindow: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Dimension(n, Options{Search: ExhaustiveSearch, MaxWindow: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Windows.Equal(serial.Windows) {
		t.Errorf("parallel %v vs serial %v", par.Windows, serial.Windows)
	}
	if math.Abs(par.Metrics.Power-serial.Metrics.Power) > 1e-12 {
		t.Errorf("powers differ: %v vs %v", par.Metrics.Power, serial.Metrics.Power)
	}
}

func TestDimensionCachesEvaluations(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	res, err := Dimension(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Search.CacheHits == 0 {
		t.Error("expected the FLOC-style cache to be hit during the search")
	}
}
