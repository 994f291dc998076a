package mva

import (
	"math"
	"testing"

	"repro/internal/qnet"
)

// twoChain builds a 3-station network with two cyclic chains of the given
// populations, asymmetric enough that the fixed point takes real work.
func twoChain(p1, p2 int) *qnet.Network {
	return &qnet.Network{
		Stations: []qnet.Station{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Chains: []qnet.Chain{
			{
				Name: "c1", Population: p1,
				Visits:   []float64{1, 1, 0},
				ServTime: []float64{0.4, 0.7, 0},
			},
			{
				Name: "c2", Population: p2,
				Visits:   []float64{1, 0, 1},
				ServTime: []float64{0.4, 0, 0.3},
			},
		},
	}
}

// Satellite regression: an active chain with no positive-visit station used
// to drive the Bottleneck initialisation to q.Set(-1, ...), a panic. The
// public API rejects such networks in Validate, so the path is reached via
// Prevalidated (the engine's contract is that ITS validation ran; a buggy
// caller must still get an error, not a panic).
func TestBottleneckInitNoVisitedStation(t *testing.T) {
	net := twoChain(3, 2)
	net.Chains[1].Visits = []float64{0, 0, 0}
	for _, init := range []Initialization{Balanced, Bottleneck} {
		_, err := Approximate(net, Options{Init: init, Prevalidated: true})
		if err == nil {
			t.Fatalf("%v: expected initialisation error for chain with no visited station", init)
		}
	}
}

func TestWorkspaceBitIdentical(t *testing.T) {
	ws := NewWorkspace()
	for _, m := range []Method{SigmaHeuristic, Schweitzer} {
		for _, pops := range [][2]int{{1, 1}, {4, 2}, {2, 5}, {4, 2}} {
			net := twoChain(pops[0], pops[1])
			plain, err := Approximate(net, Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			backed, err := Approximate(net, Options{Method: m, Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Iterations != backed.Iterations {
				t.Errorf("%v %v: iterations %d vs %d", m, pops, plain.Iterations, backed.Iterations)
			}
			for r := range plain.Throughput {
				if plain.Throughput[r] != backed.Throughput[r] {
					t.Errorf("%v %v chain %d: lambda %v vs %v (must be bitwise equal)",
						m, pops, r, plain.Throughput[r], backed.Throughput[r])
				}
			}
			for i := 0; i < net.N(); i++ {
				for r := 0; r < net.R(); r++ {
					if plain.QueueLen.At(i, r) != backed.QueueLen.At(i, r) {
						t.Errorf("%v %v: queue length (%d,%d) differs", m, pops, i, r)
					}
					if plain.QueueTime.At(i, r) != backed.QueueTime.At(i, r) {
						t.Errorf("%v %v: queue time (%d,%d) differs", m, pops, i, r)
					}
				}
			}
		}
	}
}

func TestWarmStartSameFixedPointFewerSweeps(t *testing.T) {
	cold1, err := Approximate(twoChain(4, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := WarmFromSolution(cold1)

	// The neighbouring candidate (one window bumped), cold and warm.
	next := twoChain(5, 3)
	cold2, err := Approximate(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Approximate(next, Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	for r := range cold2.Throughput {
		diff := math.Abs(cold2.Throughput[r] - warm2.Throughput[r])
		if diff > 1e-5 {
			t.Errorf("chain %d: warm fixed point drifted by %v", r, diff)
		}
	}
	if warm2.Iterations > cold2.Iterations {
		t.Errorf("warm start took %d sweeps, cold %d", warm2.Iterations, cold2.Iterations)
	}
}

func TestWarmStartDegenerateFallsBack(t *testing.T) {
	// A seed with the wrong dimensions, and one with a zero column, must
	// both fall back to the cold rule and still converge.
	net := twoChain(3, 2)
	cold, err := Approximate(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &WarmStart{} // dimension mismatch
	sol, err := Approximate(net, Options{Warm: bad})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Throughput[0] != cold.Throughput[0] {
		t.Error("mismatched seed should reproduce the cold run exactly")
	}
	zero := WarmFromSolution(cold)
	zero.Throughput[1] = 0 // degenerate column for chain 1 only
	sol2, err := Approximate(net, Options{Warm: zero})
	if err != nil {
		t.Fatal(err)
	}
	for r := range sol2.Throughput {
		if math.Abs(sol2.Throughput[r]-cold.Throughput[r]) > 1e-5 {
			t.Errorf("chain %d: partial seed diverged", r)
		}
	}
}

func TestLinearizerWarmStart(t *testing.T) {
	cold1, err := Linearizer(twoChain(4, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := twoChain(5, 3)
	cold2, err := Linearizer(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Linearizer(next, Options{Warm: WarmFromSolution(cold1)})
	if err != nil {
		t.Fatal(err)
	}
	for r := range cold2.Throughput {
		if math.Abs(cold2.Throughput[r]-warm2.Throughput[r]) > 1e-5 {
			t.Errorf("chain %d: warm Linearizer drifted", r)
		}
	}
}

// raceEnabled is set by race_test.go; the race detector instruments
// allocations, so counting them is only meaningful without it.
var raceEnabled bool

func TestApproximateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	net := twoChain(4, 3)
	eff, err := Prevalidate(net)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	opts := Options{Workspace: ws, Prevalidated: true}
	// Prime the workspace (sizes buffers, fills the curve cache).
	if _, err := Approximate(eff, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Approximate(eff, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The σ curve cache may extend a vector on a fresh population mix;
	// steady state on a fixed candidate must be allocation-free.
	if allocs > 0 {
		t.Errorf("steady-state Approximate allocates %v times per call, want 0", allocs)
	}

	// A population sweep 64, 1, 64 over the same compiled network: the
	// first solve at 64 grows chain 0's flat σ curve to 64 populations, and
	// from then on shrinking and regrowing the population reuses it.
	var sweep []*qnet.Network
	for _, p := range []int{64, 1, 64} {
		n, err := eff.WithPopulations([]int{p, 3})
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, n)
	}
	if _, err := Approximate(sweep[0], opts); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		for _, n := range sweep {
			if _, err := Approximate(n, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("population sweep 64, 1, 64 allocates %v times per pass after the largest population was solved, want 0", allocs)
	}
}

func TestPrevalidateRejects(t *testing.T) {
	net := twoChain(3, 2)
	net.Stations[1].Servers = 3
	if _, err := Prevalidate(net); err == nil {
		t.Fatal("expected unsupported-station error")
	}
	bad := twoChain(3, 2)
	bad.Chains[0].Visits = []float64{1}
	if _, err := Prevalidate(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPrevalidateAppliesOpenLoadReduction(t *testing.T) {
	net := twoChain(3, 2)
	net.Stations[0].OpenLoad = 0.5
	eff, err := Prevalidate(net)
	if err != nil {
		t.Fatal(err)
	}
	want := net.Chains[0].ServTime[0] / (1 - 0.5)
	if math.Abs(eff.Chains[0].ServTime[0]-want) > 1e-15 {
		t.Errorf("service time %v, want inflated %v", eff.Chains[0].ServTime[0], want)
	}
	// Solving the prevalidated network must match the normal path.
	a, err := Approximate(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Approximate(eff, Options{Prevalidated: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput[0] != b.Throughput[0] {
		t.Errorf("prevalidated path diverges: %v vs %v", a.Throughput[0], b.Throughput[0])
	}
}
