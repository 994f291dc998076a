package convolution

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// randomNetwork draws a small closed multichain network mixing fixed-rate,
// IS, multi-server, and explicitly queue-dependent stations, with service
// times spanning enough orders of magnitude to exercise the scaling and
// log2 paths.
func randomNetwork(rng *rand.Rand) (*qnet.Network, numeric.IntVector) {
	n := 1 + rng.Intn(4)
	w := 1 + rng.Intn(3)
	net := &qnet.Network{Stations: make([]qnet.Station, n), Chains: make([]qnet.Chain, w)}
	for i := range net.Stations {
		switch rng.Intn(5) {
		case 0:
			net.Stations[i].Kind = qnet.IS
		case 1:
			net.Stations[i].Servers = 2
		case 2:
			net.Stations[i].RateFactors = []float64{1, 1.5, 2}
		}
	}
	scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
	// FCFS product form requires chain-independent service times; draw
	// one mean per station and vary the visit ratios per chain.
	servTime := make([]float64, n)
	for i := range servTime {
		servTime[i] = scale * (0.05 + rng.Float64())
	}
	hmax := numeric.NewIntVector(w)
	for r := range net.Chains {
		c := &net.Chains[r]
		c.Visits = make([]float64, n)
		c.ServTime = make([]float64, n)
		visited := false
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 || (!visited && i == n-1) {
				c.Visits[i] = 0.25 + rng.Float64()*2
				c.ServTime[i] = servTime[i]
				visited = true
			}
		}
		hmax[r] = 1 + rng.Intn(3)
	}
	return net, hmax
}

func solveFreshAt(t *testing.T, net *qnet.Network, h numeric.IntVector) (*Solution, error) {
	t.Helper()
	fresh := &qnet.Network{Stations: net.Stations, Chains: make([]qnet.Chain, len(net.Chains))}
	copy(fresh.Chains, net.Chains)
	for r := range fresh.Chains {
		fresh.Chains[r].Population = h[r]
	}
	return Solve(fresh)
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// compareSolutions checks that an engine evaluation agrees with a fresh
// Solve at the same population vector to within tol (relative on means,
// absolute on probabilities).
func compareSolutions(t *testing.T, tag string, got, want *Solution, tol float64) {
	t.Helper()
	for w := range want.Throughput {
		if relDiff(got.Throughput[w], want.Throughput[w]) > tol {
			t.Errorf("%s: chain %d throughput %v vs fresh %v", tag, w, got.Throughput[w], want.Throughput[w])
		}
	}
	rows, cols := len(want.Marginal), len(want.Throughput)
	for i := 0; i < rows; i++ {
		for w := 0; w < cols; w++ {
			if relDiff(got.QueueLen.At(i, w), want.QueueLen.At(i, w)) > tol {
				t.Errorf("%s: station %d chain %d queue %v vs fresh %v",
					tag, i, w, got.QueueLen.At(i, w), want.QueueLen.At(i, w))
			}
		}
		if relDiff(got.Utilization[i], want.Utilization[i]) > tol {
			t.Errorf("%s: station %d utilisation %v vs fresh %v", tag, i, got.Utilization[i], want.Utilization[i])
		}
		if len(got.Marginal[i]) != len(want.Marginal[i]) {
			t.Fatalf("%s: station %d marginal length %d vs %d", tag, i, len(got.Marginal[i]), len(want.Marginal[i]))
		}
		for k := range want.Marginal[i] {
			if math.Abs(got.Marginal[i][k]-want.Marginal[i][k]) > tol {
				t.Errorf("%s: station %d marginal p(%d) %v vs fresh %v",
					tag, i, k, got.Marginal[i][k], want.Marginal[i][k])
			}
		}
	}
	// The normalisation constants may carry different power-of-two
	// shifts; compare as true values via the shift difference.
	if want.G > 0 && got.G > 0 {
		ratio := got.G / want.G * math.Exp2(float64(got.GShift-want.GShift))
		if math.Abs(ratio-1) > tol {
			t.Errorf("%s: G %v<<%d vs fresh %v<<%d", tag, got.G, got.GShift, want.G, want.GShift)
		}
	}
}

// TestEngineMatchesSolveProperty is the property-test corpus of the
// acceptance criteria: EvalAt(H) for every H inside a randomized box must
// agree with a fresh Solve at H to 1e-9.
func TestEngineMatchesSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		net, hmax := randomNetwork(rng)
		eng, err := NewEngine(net, hmax, EngineOptions{})
		if err != nil {
			t.Fatalf("trial %d: NewEngine(%v): %v", trial, hmax, err)
		}
		// Every point of the box, including the interior and h = 0.
		numeric.LatticeWalk(hmax, func(p numeric.IntVector) {
			h := p.Clone()
			got, err := eng.EvalAt(h)
			if err != nil {
				t.Fatalf("trial %d: EvalAt(%v): %v", trial, h, err)
			}
			want, err := solveFreshAt(t, net, h)
			if err != nil {
				t.Fatalf("trial %d: fresh Solve(%v): %v", trial, h, err)
			}
			compareSolutions(t, hmax.String()+"@"+h.String(), got, want, 1e-9)
		})
	}
}

// TestEngineExtensionMatchesFresh grows the box one coordinate at a time
// (the Hooke–Jeeves access pattern) and cross-checks every evaluation
// against a fresh solve after each extension.
func TestEngineExtensionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		net, hmax := randomNetwork(rng)
		eng, err := NewEngine(net, hmax, EngineOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		h := hmax.Clone()
		for step := 0; step < 4; step++ {
			h[rng.Intn(len(h))] += 1 + rng.Intn(2)
			got, err := eng.EvalAt(h)
			if err != nil {
				t.Fatalf("trial %d step %d: EvalAt(%v): %v", trial, step, h, err)
			}
			if !eng.lat.covers(h) {
				t.Fatalf("trial %d step %d: box %v does not cover %v", trial, step, eng.Hmax(), h)
			}
			want, err := solveFreshAt(t, net, h)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			compareSolutions(t, "extend@"+h.String(), got, want, 1e-9)
			// Interior points must stay exact after the remap too.
			interior := numeric.NewIntVector(len(h))
			for w := range h {
				interior[w] = h[w] / 2
			}
			got, err = eng.EvalAt(interior)
			if err != nil {
				t.Fatalf("trial %d step %d: interior: %v", trial, step, err)
			}
			want, err = solveFreshAt(t, net, interior)
			if err != nil {
				t.Fatalf("trial %d step %d: interior fresh: %v", trial, step, err)
			}
			compareSolutions(t, "interior@"+interior.String(), got, want, 1e-9)
		}
	}
}

// TestEngineGrowthBitIdentical pins the engine's determinism contract at
// the bit level: an engine built fresh at box B and one grown to B through
// a random sequence of boxes return MeansAt results with equal bits at
// every point of B, serially and under plane-parallel sweeps. Exhaustive
// scans rely on it when they build the whole box up front instead of
// growing the lattice candidate by candidate.
func TestEngineGrowthBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		net, hmax := randomNetwork(rng)
		box := hmax.Clone()
		for w := range box {
			box[w] += rng.Intn(3)
		}
		randomBelow := func() numeric.IntVector {
			h := numeric.NewIntVector(len(box))
			for w := range h {
				h[w] = rng.Intn(box[w] + 1)
			}
			return h
		}
		start := randomBelow()
		steps := make([]numeric.IntVector, 1+rng.Intn(4))
		for k := range steps {
			steps[k] = randomBelow()
		}
		for _, workers := range []int{1, 4} {
			fresh, err := NewEngine(net, box, EngineOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: fresh NewEngine(%v): %v", trial, box, err)
			}
			grown, err := NewEngine(net, start, EngineOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: NewEngine(%v): %v", trial, start, err)
			}
			for _, h := range append(steps, box) {
				if err := grown.EnsureBox(h); err != nil {
					t.Fatalf("trial %d: EnsureBox(%v): %v", trial, h, err)
				}
			}
			if !grown.Hmax().Equal(box) {
				t.Fatalf("trial %d: grown box %v, want %v", trial, grown.Hmax(), box)
			}
			numeric.LatticeWalk(box, func(p numeric.IntVector) {
				want, err := fresh.MeansAt(p)
				if err != nil {
					t.Fatalf("trial %d: fresh MeansAt(%v): %v", trial, p, err)
				}
				got, err := grown.MeansAt(p)
				if err != nil {
					t.Fatalf("trial %d: grown MeansAt(%v): %v", trial, p, err)
				}
				for w := range want.Throughput {
					if math.Float64bits(got.Throughput[w]) != math.Float64bits(want.Throughput[w]) {
						t.Fatalf("trial %d workers %d at %v: chain %d throughput %v grown vs %v fresh",
							trial, workers, p, w, got.Throughput[w], want.Throughput[w])
					}
					for i := range net.Stations {
						if math.Float64bits(got.QueueLen.At(i, w)) != math.Float64bits(want.QueueLen.At(i, w)) {
							t.Fatalf("trial %d workers %d at %v: station %d chain %d queue %v grown vs %v fresh",
								trial, workers, p, i, w, got.QueueLen.At(i, w), want.QueueLen.At(i, w))
						}
					}
				}
			})
		}
	}
}

// TestEngineParallelBitIdentical requires the Workers > 1 lattice sweep
// to reproduce the serial build bit for bit, both on fresh builds and on
// incremental extensions.
func TestEngineParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		net, hmax := randomNetwork(rng)
		serial, err := NewEngine(net, hmax, EngineOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		parallel, err := NewEngine(net, hmax, EngineOptions{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		grown := hmax.Clone()
		grown[trial%len(grown)] += 2
		for _, eng := range []*Engine{serial, parallel} {
			if err := eng.EnsureBox(grown); err != nil {
				t.Fatalf("trial %d: EnsureBox: %v", trial, err)
			}
			if _, err := eng.EvalAt(grown); err != nil {
				t.Fatalf("trial %d: EvalAt: %v", trial, err)
			}
		}
		sameScaled := func(tag string, a, b scaled) {
			if a.shift != b.shift || len(a.v) != len(b.v) {
				t.Fatalf("trial %d %s: shape/shift mismatch (%d vs %d)", trial, tag, a.shift, b.shift)
			}
			for k := range a.v {
				if math.Float64bits(a.v[k]) != math.Float64bits(b.v[k]) {
					t.Fatalf("trial %d %s[%d]: %v != %v", trial, tag, k, a.v[k], b.v[k])
				}
			}
		}
		ls, lp := serial.lat, parallel.lat
		for k := range ls.prefix {
			sameScaled("prefix", ls.prefix[k], lp.prefix[k])
			sameScaled("suffix", ls.suffix[k], lp.suffix[k])
		}
		for i := range ls.c {
			if (ls.c[i].v == nil) != (lp.c[i].v == nil) {
				t.Fatalf("trial %d: c[%d] presence mismatch", trial, i)
			}
			if ls.c[i].v != nil {
				sameScaled("c", ls.c[i], lp.c[i])
			}
			if ls.gPlus[i].v != nil {
				sameScaled("g+", ls.gPlus[i], lp.gPlus[i])
			}
			if ls.gMinus[i].v != nil {
				sameScaled("g-", ls.gMinus[i], lp.gMinus[i])
			}
		}
	}
}

// TestEngineMeansMatchesEval checks the cheap read path against the full
// solution path.
func TestEngineMeansMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		net, hmax := randomNetwork(rng)
		eng, err := NewEngine(net, hmax, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		numeric.LatticeWalk(hmax, func(p numeric.IntVector) {
			m, err := eng.MeansAt(p)
			if err != nil {
				t.Fatalf("MeansAt(%v): %v", p, err)
			}
			sol, err := eng.EvalAt(p)
			if err != nil {
				t.Fatalf("EvalAt(%v): %v", p, err)
			}
			for w := range m.Throughput {
				if m.Throughput[w] != sol.Throughput[w] {
					t.Errorf("throughput mismatch at %v chain %d", p, w)
				}
			}
			for i := range net.Stations {
				for w := range m.Throughput {
					if relDiff(m.QueueLen.At(i, w), sol.QueueLen.At(i, w)) > 1e-12 {
						t.Errorf("queue mismatch at %v station %d chain %d", p, i, w)
					}
				}
			}
		})
	}
}

// TestEngineConcurrentEval hammers one engine from many goroutines, mixing
// in-box evaluations with box growth; run under -race this is the
// concurrency regression test.
func TestEngineConcurrentEval(t *testing.T) {
	net, hmax := randomNetwork(rand.New(rand.NewSource(5)))
	eng, err := NewEngine(net, hmax, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 40; k++ {
				h := numeric.NewIntVector(len(hmax))
				for w := range h {
					h[w] = rng.Intn(hmax[w] + 3)
				}
				if _, err := eng.MeansAt(h); err != nil {
					t.Errorf("MeansAt(%v): %v", h, err)
					return
				}
				if k%10 == 0 {
					if _, err := eng.EvalAt(h); err != nil {
						t.Errorf("EvalAt(%v): %v", h, err)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
}

// TestEngineBudget: a box beyond the configured budget must be refused at
// construction and at growth, leaving the engine usable.
func TestEngineBudget(t *testing.T) {
	net := cyclic2(1, 0.5, 0.5)
	if _, err := NewEngine(net, numeric.IntVector{1000000}, EngineOptions{Budget: 1024}); err == nil {
		t.Fatal("expected budget error at construction")
	}
	eng, err := NewEngine(net, numeric.IntVector{10}, EngineOptions{Budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnsureBox(numeric.IntVector{1000}); err == nil {
		t.Fatal("expected budget error on growth")
	}
	// Engine still answers inside its old box.
	if _, err := eng.EvalAt(numeric.IntVector{10}); err != nil {
		t.Fatalf("engine unusable after refused growth: %v", err)
	}
}

// TestEngineUnstablePropagates: a network whose normalisation constant
// cannot be represented even after rescaling must report ErrUnstable, not
// NaN results.
func TestEngineUnstablePropagates(t *testing.T) {
	// Two stations with astronomically separated demands on one chain
	// push g's dynamic range past float64 even after per-chain scaling.
	net := &qnet.Network{
		Stations: []qnet.Station{{Name: "a"}, {Name: "b", RateFactors: []float64{1e-300, 1e300}}},
		Chains: []qnet.Chain{{
			Name: "c", Population: 4,
			Visits:   []float64{1, 1},
			ServTime: []float64{1e-280, 1e280},
		}},
	}
	_, err := NewEngine(net, numeric.IntVector{600}, EngineOptions{})
	if err == nil {
		return // representable after all — rescaling is allowed to win
	}
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v, want ErrUnstable", err)
	}
}

// TestEngineZeroPopulation mirrors TestSolveZeroPopulation through the
// cached path.
func TestEngineZeroPopulation(t *testing.T) {
	eng, err := NewEngine(cyclic2(0, 0.5, 0.5), numeric.IntVector{3}, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := eng.EvalAt(numeric.IntVector{0})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Throughput[0] != 0 || sol.G != 1 {
		t.Fatalf("lambda = %v, G = %v", sol.Throughput[0], sol.G)
	}
}

// TestEngineMaxBox pins the hard box bound the sharded search's slab
// workers rely on: queries inside MaxBox are served (and bit-identical
// to an unbounded engine's), queries beyond it fail with ErrBoxBounded
// instead of growing the lattice, and construction beyond the bound is
// rejected outright.
func TestEngineMaxBox(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net, hmax := randomNetwork(rng)

	bounded, err := NewEngine(net, hmax, EngineOptions{MaxBox: hmax.Clone()})
	if err != nil {
		t.Fatalf("NewEngine with MaxBox=hmax: %v", err)
	}
	free, err := NewEngine(net, hmax, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Inside the bound: identical to the unbounded engine, bit for bit.
	numeric.LatticeWalk(hmax, func(p numeric.IntVector) {
		got, err := bounded.EvalAt(p.Clone())
		if err != nil {
			t.Fatalf("bounded EvalAt(%v): %v", p, err)
		}
		want, err := free.EvalAt(p.Clone())
		if err != nil {
			t.Fatalf("free EvalAt(%v): %v", p, err)
		}
		for w := range want.Throughput {
			if math.Float64bits(got.Throughput[w]) != math.Float64bits(want.Throughput[w]) {
				t.Fatalf("throughput at %v differs under MaxBox: %v vs %v", p, got.Throughput[w], want.Throughput[w])
			}
		}
	})

	// One past the bound on any axis: ErrBoxBounded, lattice unchanged.
	sizeBefore := bounded.Size()
	for w := range hmax {
		over := hmax.Clone()
		over[w]++
		if _, err := bounded.EvalAt(over); !errors.Is(err, ErrBoxBounded) {
			t.Fatalf("EvalAt(%v) beyond MaxBox: err = %v, want ErrBoxBounded", over, err)
		}
		if err := bounded.EnsureBox(over); !errors.Is(err, ErrBoxBounded) {
			t.Fatalf("EnsureBox(%v) beyond MaxBox: err = %v, want ErrBoxBounded", over, err)
		}
	}
	if bounded.Size() != sizeBefore {
		t.Fatalf("rejected queries grew the lattice: %d -> %d", sizeBefore, bounded.Size())
	}

	// Construction beyond the bound and dimension mismatches fail fast.
	small := hmax.Clone()
	small[0]--
	if small[0] >= 0 {
		if _, err := NewEngine(net, hmax, EngineOptions{MaxBox: small}); !errors.Is(err, ErrBoxBounded) {
			t.Fatalf("NewEngine beyond MaxBox: err = %v, want ErrBoxBounded", err)
		}
	}
	if _, err := NewEngine(net, hmax, EngineOptions{MaxBox: append(hmax.Clone(), 1)}); err == nil {
		t.Fatal("NewEngine accepted a MaxBox of the wrong dimension")
	}
}
