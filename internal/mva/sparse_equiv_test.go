package mva

import (
	"fmt"
	"testing"

	"repro/internal/numeric"
	"repro/internal/qnet"
	"repro/internal/rng"
)

// randomNetwork builds a random sparse multichain network: PS and IS
// stations (PS so class-dependent service times are legal), chains
// visiting random station subsets with varied visit ratios. Service
// demands are kept moderate so the fixed points converge.
func randomNetwork(s *rng.Stream) *qnet.Network {
	nSt := 3 + s.Intn(8)
	nCh := 1 + s.Intn(5)
	net := &qnet.Network{Stations: make([]qnet.Station, nSt), Chains: make([]qnet.Chain, nCh)}
	for i := range net.Stations {
		kind := qnet.PS
		if s.Float64() < 0.25 {
			kind = qnet.IS
		}
		net.Stations[i] = qnet.Station{Name: fmt.Sprintf("s%d", i), Kind: kind}
	}
	for r := range net.Chains {
		deg := 2 + s.Intn(3)
		if deg > nSt {
			deg = nSt
		}
		visits := make([]float64, nSt)
		serv := make([]float64, nSt)
		placed := 0
		for placed < deg {
			i := s.Intn(nSt)
			if visits[i] > 0 {
				continue
			}
			visits[i] = []float64{0.5, 1, 1, 2}[s.Intn(4)]
			serv[i] = 0.05 + 0.4*s.Float64()
			placed++
		}
		net.Chains[r] = qnet.Chain{
			Name:       fmt.Sprintf("c%d", r),
			Population: 1 + s.Intn(4),
			Visits:     visits,
			ServTime:   serv,
		}
	}
	return net
}

func solutionsBitIdentical(t *testing.T, tag string, a, b *Solution) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Errorf("%s: iterations %d vs %d", tag, a.Iterations, b.Iterations)
	}
	for r := range a.Throughput {
		if a.Throughput[r] != b.Throughput[r] {
			t.Errorf("%s chain %d: throughput %v vs %v (must be bitwise equal)",
				tag, r, a.Throughput[r], b.Throughput[r])
		}
	}
	for i := 0; i < a.QueueLen.Rows; i++ {
		for r := 0; r < a.QueueLen.Cols; r++ {
			if a.QueueLen.At(i, r) != b.QueueLen.At(i, r) {
				t.Errorf("%s: queue length (%d,%d) %v vs %v",
					tag, i, r, a.QueueLen.At(i, r), b.QueueLen.At(i, r))
			}
			if a.QueueTime.At(i, r) != b.QueueTime.At(i, r) {
				t.Errorf("%s: queue time (%d,%d) %v vs %v",
					tag, i, r, a.QueueTime.At(i, r), b.QueueTime.At(i, r))
			}
		}
	}
}

// TestApproximateSparseDenseBitIdentical is the dense↔sparse equivalence
// property test of the sparse rewrite: across random networks, methods,
// initialisation rules, damping values and warm starts, the production
// (sparse) Approximate must reproduce the preserved dense implementation
// bit for bit.
func TestApproximateSparseDenseBitIdentical(t *testing.T) {
	master := rng.New(0x5a1e)
	cases := 0
	for trial := 0; trial < 40; trial++ {
		s := master.Split(uint64(trial))
		net := randomNetwork(s)
		for _, m := range []Method{SigmaHeuristic, Schweitzer} {
			for _, init := range []Initialization{Balanced, Bottleneck} {
				for _, damping := range []float64{0, 0.5} {
					opts := Options{Method: m, Init: init, Damping: damping, MaxIter: 4000}
					dense, derr := denseApproximate(net, opts)
					sparse, serr := Approximate(net, opts)
					tag := fmt.Sprintf("trial %d %v/%v damping=%v", trial, m, init, damping)
					if (derr == nil) != (serr == nil) {
						t.Fatalf("%s: dense err %v, sparse err %v", tag, derr, serr)
					}
					if derr != nil {
						continue
					}
					cases++
					solutionsBitIdentical(t, tag, dense, sparse)

					// Warm-started from the identical previous solution at a
					// bumped population: both paths must again agree bitwise.
					warm := WarmFromSolution(sparse)
					bumped, err := net.WithPopulations(bumpedPops(net))
					if err != nil {
						t.Fatal(err)
					}
					wopts := opts
					wopts.Warm = warm
					dw, derr := denseApproximate(bumped, wopts)
					sw, serr := Approximate(bumped, wopts)
					if (derr == nil) != (serr == nil) {
						t.Fatalf("%s warm: dense err %v, sparse err %v", tag, derr, serr)
					}
					if derr == nil {
						solutionsBitIdentical(t, tag+" warm", dw, sw)
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d converged comparison cases; generator too hostile", cases)
	}
}

func bumpedPops(net *qnet.Network) numeric.IntVector {
	pops := net.Populations()
	pops[0]++
	return pops
}

// TestApproximateWorkspaceReuseAcrossNetworks drives one workspace through
// alternating networks and populations — the engine's pooled-reuse shape
// plus the hostile same-dimensions-different-network shapes, one of them
// with equal entry counts too — checking each solve against a fresh
// private one.
func TestApproximateWorkspaceReuseAcrossNetworks(t *testing.T) {
	master := rng.New(0xbeef)
	ws := NewWorkspace()
	a := randomNetwork(master.Split(1))
	// b: same dimensions as a but an independent visit pattern, so the
	// workspace's compiled-view cache must invalidate on every alternation.
	var b *qnet.Network
	for i := uint64(2); ; i++ {
		b = randomNetwork(master.Split(i))
		if b.N() == a.N() && b.R() == a.R() {
			break
		}
	}
	// c: a's stations with every route shifted one station along, so c
	// and a have equal entry counts (the per-entry state keeps its
	// length and only reset stands between a's values and c's solve) but
	// different visit lists.
	c := &qnet.Network{Stations: a.Stations, Chains: make([]qnet.Chain, a.R())}
	for r, ch := range a.Chains {
		ch.Visits = append(ch.Visits[1:len(ch.Visits):len(ch.Visits)], ch.Visits[0])
		ch.ServTime = append(ch.ServTime[1:len(ch.ServTime):len(ch.ServTime)], ch.ServTime[0])
		c.Chains[r] = ch
	}
	spA, spC := qnet.Compile(a), qnet.Compile(c)
	if spA.Entries() != spC.Entries() || fmt.Sprint(spA.EntStation) == fmt.Sprint(spC.EntStation) {
		t.Fatalf("shifted network: %d vs %d entries, stations %v vs %v; want equal counts, different routes",
			spA.Entries(), spC.Entries(), spA.EntStation, spC.EntStation)
	}
	nets := []*qnet.Network{a, b, a, a, b, c, a, c, c}
	for k, net := range nets {
		for _, m := range []Method{SigmaHeuristic, Schweitzer} {
			for _, init := range []Initialization{Balanced, Bottleneck} {
				pops := net.Populations()
				pops[k%len(pops)] = 1 + (k % 3)
				// The Bottleneck rule seeds one entry per chain, and an idle
				// chain none: what the seed leaves alone must read as zero,
				// whatever the previous solve left in the workspace.
				if init == Bottleneck && len(pops) > 1 {
					pops[(k+1)%len(pops)] = 0
				}
				cand, err := net.WithPopulations(pops)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Method: m, Init: init, MaxIter: 4000}
				plain, perr := Approximate(cand, opts)
				opts.Workspace = ws
				backed, berr := Approximate(cand, opts)
				if (perr == nil) != (berr == nil) {
					t.Fatalf("step %d %v/%v: private err %v, workspace err %v", k, m, init, perr, berr)
				}
				if perr != nil {
					continue
				}
				solutionsBitIdentical(t, fmt.Sprintf("step %d %v/%v", k, m, init), plain, backed)
			}
		}
	}
}

// TestExactMultichainSparseDenseBitIdentical: the sparse lattice walk must
// reproduce the dense one exactly.
func TestExactMultichainSparseDenseBitIdentical(t *testing.T) {
	master := rng.New(0xe4ac)
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(master.Split(uint64(trial)))
		dense, derr := denseExactMultichain(net)
		sparse, serr := ExactMultichain(net)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v, sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		solutionsBitIdentical(t, fmt.Sprintf("exact trial %d", trial), dense, sparse)
	}
}

// TestLinearizerSparseDenseBitIdentical: the entry-indexed deviation array
// must reproduce the dense [N][R][R] one exactly, cold and warm.
func TestLinearizerSparseDenseBitIdentical(t *testing.T) {
	master := rng.New(0x11ea)
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(master.Split(uint64(trial)))
		opts := Options{MaxIter: 4000}
		dense, derr := denseLinearizer(net, opts)
		sparse, serr := Linearizer(net, opts)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err %v, sparse err %v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		solutionsBitIdentical(t, fmt.Sprintf("linearizer trial %d", trial), dense, sparse)

		warm := WarmFromSolution(sparse)
		bumped, err := net.WithPopulations(bumpedPops(net))
		if err != nil {
			t.Fatal(err)
		}
		wopts := opts
		wopts.Warm = warm
		dw, derr := denseLinearizer(bumped, wopts)
		sw, serr := Linearizer(bumped, wopts)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d warm: dense err %v, sparse err %v", trial, derr, serr)
		}
		if derr == nil {
			solutionsBitIdentical(t, fmt.Sprintf("linearizer trial %d warm", trial), dw, sw)
		}
	}
}

// TestApproximateExplicitSparseOption: passing the precompiled view via
// Options.Sparse (the engine's path) must change nothing, and a mismatched
// view must be ignored rather than trusted.
func TestApproximateExplicitSparseOption(t *testing.T) {
	master := rng.New(0x0905)
	net := randomNetwork(master.Split(0))
	other := randomNetwork(master.Split(1))
	sp := qnet.Compile(net)
	for _, m := range []Method{SigmaHeuristic, Schweitzer} {
		base, err := Approximate(net, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		withSp, err := Approximate(net, Options{Method: m, Sparse: sp})
		if err != nil {
			t.Fatal(err)
		}
		solutionsBitIdentical(t, fmt.Sprintf("%v explicit sparse", m), base, withSp)
		// A view compiled from a different network must not be applied.
		mismatch, err := Approximate(net, Options{Method: m, Sparse: qnet.Compile(other)})
		if err != nil {
			t.Fatal(err)
		}
		solutionsBitIdentical(t, fmt.Sprintf("%v mismatched sparse", m), base, mismatch)
	}
}
