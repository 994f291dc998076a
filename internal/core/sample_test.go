package core

import (
	"testing"

	"repro/internal/topo"
)

// TestSampleScenariosDeterministic: the same seed reproduces the same set
// bit-for-bit, a different seed a different one, and growing the count
// keeps the prefix (per-index SubSeed streams).
func TestSampleScenariosDeterministic(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	opts := SampleOptions{Count: 8, Seed: 42, KeepDominated: true}
	a, err := SampleScenarios(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleScenarios(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("sampled %d and %d scenarios, want 8", len(a), len(b))
	}
	for i := range a {
		for l := range a[i].CapacityScale {
			if a[i].CapacityScale[l] != b[i].CapacityScale[l] {
				t.Fatalf("scenario %d channel %d differs across identical seeds", i, l)
			}
		}
		for r := range a[i].RateScale {
			if a[i].RateScale[r] != b[i].RateScale[r] {
				t.Fatalf("scenario %d class %d differs across identical seeds", i, r)
			}
		}
	}
	grown, err := SampleScenarios(n, SampleOptions{Count: 12, Seed: 42, KeepDominated: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if grown[i].CapacityScale[0] != a[i].CapacityScale[0] || grown[i].RateScale[0] != a[i].RateScale[0] {
			t.Fatalf("growing the count changed scenario %d", i)
		}
	}
	other, err := SampleScenarios(n, SampleOptions{Count: 8, Seed: 43, KeepDominated: true})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		for l := range a[i].CapacityScale {
			if a[i].CapacityScale[l] != other[i].CapacityScale[l] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical capacity scales")
	}
}

// TestSampleScenariosValid: every sampled scenario passes validation and
// applies cleanly to the network, and scales stay inside the documented
// ranges.
func TestSampleScenariosValid(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios, err := SampleScenarios(n, SampleOptions{Count: 20, Seed: 7, KeepDominated: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if _, err := sc.Apply(n); err != nil {
			t.Fatalf("scenario %q does not apply: %v", sc.Name, err)
		}
		for l, f := range sc.CapacityScale {
			if f < 0.5 || f > 1 {
				t.Errorf("scenario %q channel %d capacity scale %v outside [0.5, 1]", sc.Name, l, f)
			}
		}
		for r, f := range sc.RateScale {
			if f < 1 || f > 1.5 {
				t.Errorf("scenario %q class %d rate scale %v outside [1, 1.5]", sc.Name, r, f)
			}
		}
	}
}

// TestSampleScenariosRejectsBadOptions covers the option validation.
func TestSampleScenariosRejectsBadOptions(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	bad := []SampleOptions{
		{Count: 0},
		{Count: -3},
	}
	for i, o := range bad {
		if _, err := SampleScenarios(n, o); err == nil {
			t.Errorf("options %d (%+v): no error", i, o)
		}
	}
}

// TestPruneDominatedScenarios: a strictly harsher scenario absorbs milder
// ones, incomparable scenarios survive, duplicates keep their first
// occurrence, and nominal (all ones) is pruned whenever anything else is
// sampled.
func TestPruneDominatedScenarios(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	nominal := Scenario{Name: "nominal"}
	mild := Scenario{Name: "mild", CapacityScale: []float64{1, 0.9, 1, 1, 1, 1, 1}}
	harsh := Scenario{Name: "harsh", CapacityScale: []float64{1, 0.7, 1, 1, 1, 1, 1}, RateScale: []float64{1.2, 1}}
	sideways := Scenario{Name: "sideways", CapacityScale: []float64{0.8, 1, 1, 1, 1, 1, 1}}
	dupe := Scenario{Name: "harsh-again", CapacityScale: []float64{1, 0.7, 1, 1, 1, 1, 1}, RateScale: []float64{1.2, 1}}

	kept, err := PruneDominatedScenarios(n, []Scenario{nominal, mild, harsh, sideways, dupe})
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(kept))
	for _, sc := range kept {
		names[sc.Name] = true
	}
	if len(kept) != 2 || !names["harsh"] || !names["sideways"] {
		t.Fatalf("kept %v, want exactly {harsh, sideways}", names)
	}
}

// TestSampleThenDimensionRobust: a sampled, pruned set drives
// DimensionRobust end to end.
func TestSampleThenDimensionRobust(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios, err := SampleScenarios(n, SampleOptions{Count: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("pruning removed every scenario")
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == nil || res.WorstPower <= 0 {
		t.Fatalf("degenerate robust result: %+v", res)
	}
}
