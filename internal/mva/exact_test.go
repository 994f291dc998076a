package mva

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// cyclic2 builds a single-chain 2-station cyclic network.
func cyclic2(pop int, s1, s2 float64) *qnet.Network {
	return &qnet.Network{
		Stations: []qnet.Station{{Name: "a"}, {Name: "b"}},
		Chains: []qnet.Chain{{
			Name: "c", Population: pop,
			Visits:   []float64{1, 1},
			ServTime: []float64{s1, s2},
		}},
	}
}

func TestExactMultichainBalancedCyclic(t *testing.T) {
	// Balanced 2-station cyclic chain: lambda(K) = K/((K+1)s).
	for k := 1; k <= 6; k++ {
		net := cyclic2(k, 0.5, 0.5)
		sol, err := ExactMultichain(net)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k) / (float64(k+1) * 0.5)
		if math.Abs(sol.Throughput[0]-want) > 1e-12 {
			t.Errorf("K=%d: lambda = %v, want %v", k, sol.Throughput[0], want)
		}
		// Symmetry: equal queue lengths.
		if math.Abs(sol.QueueLen.At(0, 0)-sol.QueueLen.At(1, 0)) > 1e-12 {
			t.Errorf("K=%d: asymmetric queues %v vs %v", k, sol.QueueLen.At(0, 0), sol.QueueLen.At(1, 0))
		}
		if err := littleCheck(net, sol, 1e-9); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
	}
}

func TestExactMultichainMachineRepairman(t *testing.T) {
	// K customers, IS think time Z, single FCFS server s: the classic
	// machine-repairman closed network. Verify against the direct
	// birth-death solution.
	const (
		k = 4
		z = 2.0
		s = 0.5
	)
	net := &qnet.Network{
		Stations: []qnet.Station{{Name: "think", Kind: qnet.IS}, {Name: "cpu"}},
		Chains: []qnet.Chain{{
			Name: "c", Population: k,
			Visits:   []float64{1, 1},
			ServTime: []float64{z, s},
		}},
	}
	sol, err := ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	// Birth-death over number j at the CPU: pi(j) ∝ (K!/(K-j)!) (s/z)^j.
	var probs [k + 1]float64
	norm := 0.0
	for j := 0; j <= k; j++ {
		p := 1.0
		for l := 0; l < j; l++ {
			p *= float64(k-l) * s / z
		}
		probs[j] = p
		norm += p
	}
	meanCPU, busy := 0.0, 0.0
	for j := 0; j <= k; j++ {
		probs[j] /= norm
		meanCPU += float64(j) * probs[j]
		if j > 0 {
			busy += probs[j]
		}
	}
	lambda := busy / s
	if math.Abs(sol.Throughput[0]-lambda) > 1e-9 {
		t.Errorf("lambda = %v, want %v", sol.Throughput[0], lambda)
	}
	if math.Abs(sol.QueueLen.At(1, 0)-meanCPU) > 1e-9 {
		t.Errorf("CPU queue = %v, want %v", sol.QueueLen.At(1, 0), meanCPU)
	}
	if err := littleCheck(net, sol, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestExactMultichainTwoChains(t *testing.T) {
	// Two chains sharing a middle station; populations (2, 3).
	net := &qnet.Network{
		Stations: []qnet.Station{{Name: "s0"}, {Name: "shared"}, {Name: "s2"}},
		Chains: []qnet.Chain{
			{Name: "a", Population: 2, Visits: []float64{1, 1, 0}, ServTime: []float64{0.2, 0.1, 0}},
			{Name: "b", Population: 3, Visits: []float64{0, 1, 1}, ServTime: []float64{0, 0.1, 0.3}},
		},
	}
	sol, err := ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := littleCheck(net, sol, 1e-9); err != nil {
		t.Error(err)
	}
	// Sanity: both chains have positive throughput bounded by the shared
	// station's capacity 1/0.1 = 10.
	total := sol.Throughput[0] + sol.Throughput[1]
	if sol.Throughput[0] <= 0 || sol.Throughput[1] <= 0 || total >= 10 {
		t.Errorf("throughputs = %v", sol.Throughput)
	}
}

func TestExactMultichainZeroPopulationChain(t *testing.T) {
	net := &qnet.Network{
		Stations: []qnet.Station{{Name: "a"}, {Name: "b"}},
		Chains: []qnet.Chain{
			{Name: "c0", Population: 3, Visits: []float64{1, 1}, ServTime: []float64{0.5, 0.5}},
			{Name: "c1", Population: 0, Visits: []float64{1, 1}, ServTime: []float64{0.5, 0.5}},
		},
	}
	sol, err := ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Throughput[1] != 0 {
		t.Errorf("zero-population chain throughput = %v", sol.Throughput[1])
	}
	// Chain 0 behaves as if alone.
	want := 3.0 / (4.0 * 0.5)
	if math.Abs(sol.Throughput[0]-want) > 1e-12 {
		t.Errorf("lambda0 = %v, want %v", sol.Throughput[0], want)
	}
}

func TestExactMultichainRejectsQueueDependent(t *testing.T) {
	net := cyclic2(2, 0.5, 0.5)
	net.Stations[0].Servers = 2
	if _, err := ExactMultichain(net); err == nil {
		t.Fatal("expected error for queue-dependent station")
	}
}

func TestExactMultichainRejectsInvalid(t *testing.T) {
	net := cyclic2(2, 0.5, 0.5)
	net.Chains[0].ServTime[0] = -1
	if _, err := ExactMultichain(net); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestExactMultichainLatticeBudget(t *testing.T) {
	net := &qnet.Network{
		Stations: []qnet.Station{{Name: "a"}, {Name: "b"}},
		Chains:   make([]qnet.Chain, 12),
	}
	for r := range net.Chains {
		net.Chains[r] = qnet.Chain{
			Name: "c", Population: 100,
			Visits:   []float64{1, 1},
			ServTime: []float64{0.5, 0.5},
		}
	}
	if _, err := ExactMultichain(net); err == nil {
		t.Fatal("expected lattice budget error")
	}
}

func TestExactSingleChainMatchesMultichain(t *testing.T) {
	net := cyclic2(5, 0.4, 0.7)
	multi, err := ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := ExactSingleChain(
		numeric.Vector{1, 1}, numeric.Vector{0.4, 0.7}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(curve.Throughput[4]-multi.Throughput[0]) > 1e-12 {
		t.Errorf("single %v vs multi %v", curve.Throughput[4], multi.Throughput[0])
	}
	for i := 0; i < 2; i++ {
		if math.Abs(curve.QueueLen[4][i]-multi.QueueLen.At(i, 0)) > 1e-12 {
			t.Errorf("station %d queue: %v vs %v", i, curve.QueueLen[4][i], multi.QueueLen.At(i, 0))
		}
	}
}

func TestExactSingleChainMonotoneThroughput(t *testing.T) {
	curve, err := ExactSingleChain(
		numeric.Vector{1, 1, 1}, numeric.Vector{0.2, 0.5, 0.3}, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := 1 / 0.5
	for d := 1; d < 20; d++ {
		if curve.Throughput[d] < curve.Throughput[d-1]-1e-12 {
			t.Errorf("throughput not monotone at %d: %v < %v", d+1, curve.Throughput[d], curve.Throughput[d-1])
		}
		if curve.Throughput[d] > bottleneck+1e-12 {
			t.Errorf("throughput %v exceeds bottleneck %v", curve.Throughput[d], bottleneck)
		}
	}
}

func TestExactSingleChainErrors(t *testing.T) {
	if _, err := ExactSingleChain(numeric.Vector{1}, numeric.Vector{1, 2}, nil, 1); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := ExactSingleChain(numeric.Vector{1}, numeric.Vector{1}, nil, 0); err == nil {
		t.Error("expected population error")
	}
	if _, err := ExactSingleChain(numeric.Vector{0}, numeric.Vector{0}, nil, 1); err == nil {
		t.Error("expected no-visits error")
	}
	if _, err := ExactSingleChain(numeric.Vector{1}, numeric.Vector{0}, nil, 1); err == nil {
		t.Error("expected service-time error")
	}
}

func TestSingleChainCurveAt(t *testing.T) {
	curve, err := ExactSingleChain(numeric.Vector{1, 1}, numeric.Vector{0.5, 0.5}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	zero := curve.At(0)
	if zero.Sum() != 0 {
		t.Errorf("At(0) = %v", zero)
	}
	if got := curve.At(2); math.Abs(got.Sum()-2) > 1e-12 {
		t.Errorf("At(2) sums to %v", got.Sum())
	}
}

func TestSingleChainLDMatchesFixedRate(t *testing.T) {
	visits := numeric.Vector{1, 1}
	serv := numeric.Vector{0.4, 0.7}
	stations := []qnet.Station{{}, {}}
	ld, err := SingleChainLD(visits, serv, stations, 6)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ExactSingleChain(visits, serv, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 6; d++ {
		if math.Abs(ld.Throughput[d]-plain.Throughput[d]) > 1e-9 {
			t.Errorf("pop %d: LD lambda %v vs plain %v", d+1, ld.Throughput[d], plain.Throughput[d])
		}
	}
}

func TestSingleChainLDWithIS(t *testing.T) {
	visits := numeric.Vector{1, 1}
	serv := numeric.Vector{2.0, 0.5}
	stations := []qnet.Station{{Kind: qnet.IS}, {}}
	ld, err := SingleChainLD(visits, serv, stations, 4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ExactSingleChain(visits, serv, []bool{true, false}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if math.Abs(ld.Throughput[d]-plain.Throughput[d]) > 1e-9 {
			t.Errorf("pop %d: %v vs %v", d+1, ld.Throughput[d], plain.Throughput[d])
		}
	}
}

func TestSingleChainLDMultiServer(t *testing.T) {
	// Two-station cycle where station 1 has 2 servers. With K=2 and a
	// pure-delay companion, station 1 behaves like M/M/2 with no queueing:
	// both customers can be in service simultaneously.
	visits := numeric.Vector{1, 1}
	serv := numeric.Vector{1.0, 1.0}
	stations := []qnet.Station{{Kind: qnet.IS}, {Servers: 2}}
	ld, err := SingleChainLD(visits, serv, stations, 2)
	if err != nil {
		t.Fatal(err)
	}
	// With 2 servers and K=2, no customer ever queues: cycle time = 2,
	// lambda = 2/2 = 1.
	if math.Abs(ld.Throughput[1]-1) > 1e-9 {
		t.Errorf("lambda = %v, want 1", ld.Throughput[1])
	}
	// Against a single-server variant, throughput must be higher.
	single, _ := SingleChainLD(visits, serv, []qnet.Station{{Kind: qnet.IS}, {}}, 2)
	if ld.Throughput[1] <= single.Throughput[1] {
		t.Errorf("2-server lambda %v not above 1-server %v", ld.Throughput[1], single.Throughput[1])
	}
}

func TestSingleChainLDErrors(t *testing.T) {
	if _, err := SingleChainLD(numeric.Vector{1}, numeric.Vector{1}, nil, 1); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := SingleChainLD(numeric.Vector{1}, numeric.Vector{1}, []qnet.Station{{}}, 0); err == nil {
		t.Error("expected population error")
	}
}

// At returns mean queue lengths for population d (0 <= d <= max). For
// d == 0 it returns a zero vector.
func (c *SingleChainCurve) At(d int) numeric.Vector {
	if d <= 0 {
		return numeric.NewVector(len(c.QueueLen[0]))
	}
	return c.QueueLen[d-1]
}

// littleCheck is a debug invariant: per-chain populations must match the
// queue-length totals to within tol. Returns an error naming the first
// violated chain.
func littleCheck(net *qnet.Network, s *Solution, tol float64) error {
	for r := 0; r < net.R(); r++ {
		sum := 0.0
		for i := 0; i < net.N(); i++ {
			sum += s.QueueLen.At(i, r)
		}
		if want := float64(net.Chains[r].Population); math.Abs(sum-want) > tol {
			return fmt.Errorf("mva: chain %d population leak: queue lengths sum to %v, want %v", r, sum, want)
		}
	}
	return nil
}
