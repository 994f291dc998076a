package power

import (
	"math"
	"testing"

	"repro/internal/mva"
	"repro/internal/qnet"
)

// sourceAndLink is a 2-station closed chain: station 0 models the source
// (rate S), station 1 a link.
func sourceAndLink(pop int, srcRate, linkRate float64) *qnet.Network {
	return &qnet.Network{
		Stations: []qnet.Station{{Name: "source"}, {Name: "link"}},
		Chains: []qnet.Chain{{
			Name: "vc", Population: pop,
			Visits:   []float64{1, 1},
			ServTime: []float64{1 / srcRate, 1 / linkRate},
		}},
	}
}

func TestFromSolutionExcludesSource(t *testing.T) {
	net := sourceAndLink(3, 10, 20)
	sol, err := mva.ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromSolution(net, sol, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	lam := sol.Throughput[0]
	nLink := sol.QueueLen.At(1, 0)
	if math.Abs(m.Throughput-lam) > 1e-12 {
		t.Errorf("throughput = %v, want %v", m.Throughput, lam)
	}
	if math.Abs(m.Delay-nLink/lam) > 1e-12 {
		t.Errorf("delay = %v, want %v", m.Delay, nLink/lam)
	}
	if math.Abs(m.Power-m.Throughput/m.Delay) > 1e-9 {
		t.Errorf("power inconsistent: %v", m.Power)
	}
	if math.Abs(m.ClassDelay[0]-m.Delay) > 1e-12 {
		t.Errorf("single-class delay %v != network delay %v", m.ClassDelay[0], m.Delay)
	}
}

func TestFromSolutionNoSource(t *testing.T) {
	net := sourceAndLink(2, 10, 20)
	sol, err := mva.ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromSolution(net, sol, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	// All stations count: total N = population.
	wantDelay := 2.0 / sol.Throughput[0]
	if math.Abs(m.Delay-wantDelay) > 1e-9 {
		t.Errorf("delay = %v, want %v", m.Delay, wantDelay)
	}
}

func TestFromSolutionMultichain(t *testing.T) {
	net := sourceAndLink(2, 10, 40)
	net.Chains = append(net.Chains, net.Chains[0])
	net.Chains[1].Name = "vc2"
	net.Chains[1].Population = 3
	sol, err := mva.ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromSolution(net, sol, [][]int{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Throughput-(sol.Throughput[0]+sol.Throughput[1])) > 1e-12 {
		t.Errorf("total throughput = %v", m.Throughput)
	}
	// Network delay is the throughput-weighted average of class delays.
	want := (m.ClassThroughput[0]*m.ClassDelay[0] + m.ClassThroughput[1]*m.ClassDelay[1]) / m.Throughput
	if math.Abs(m.Delay-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", m.Delay, want)
	}
}

func TestFromSolutionDimensionError(t *testing.T) {
	net := sourceAndLink(2, 10, 20)
	sol, err := mva.ExactMultichain(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSolution(net, sol, [][]int{{0}, {1}}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestClassPowerAggregates(t *testing.T) {
	m := &Metrics{
		ClassThroughput: []float64{10, 20, 0},
		ClassDelay:      []float64{0.5, 0.1, 0},
	}
	if got := m.ClassPower(0); math.Abs(got-20) > 1e-12 {
		t.Errorf("ClassPower(0) = %v, want 20", got)
	}
	if got := m.ClassPower(1); math.Abs(got-200) > 1e-12 {
		t.Errorf("ClassPower(1) = %v, want 200", got)
	}
	if got := m.ClassPower(2); got != 0 {
		t.Errorf("dead class power = %v", got)
	}
	if got := m.MinClassPower(); got != 0 {
		t.Errorf("MinClassPower = %v, want 0 (dead class)", got)
	}
	if got := m.SumClassPower(); math.Abs(got-220) > 1e-12 {
		t.Errorf("SumClassPower = %v, want 220", got)
	}
	// All-alive case.
	m2 := &Metrics{
		ClassThroughput: []float64{10, 20},
		ClassDelay:      []float64{0.5, 0.1},
	}
	if got := m2.MinClassPower(); math.Abs(got-20) > 1e-12 {
		t.Errorf("MinClassPower = %v, want 20", got)
	}
	// Empty metrics.
	empty := &Metrics{}
	if empty.MinClassPower() != 0 || empty.SumClassPower() != 0 {
		t.Error("empty metrics should give zero class powers")
	}
}

func TestObjective(t *testing.T) {
	m := &Metrics{Power: 4}
	if got := m.Objective(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Objective = %v", got)
	}
	zero := &Metrics{}
	if !math.IsInf(zero.Objective(), 1) {
		t.Error("zero power should give +Inf objective")
	}
}

func TestKleinrockDelay(t *testing.T) {
	k := Kleinrock{Hops: 4, Mu: 50}
	if got := k.Delay(0); math.Abs(got-4.0/50) > 1e-12 {
		t.Errorf("Delay(0) = %v", got)
	}
	if got := k.Delay(25); math.Abs(got-4.0/25) > 1e-12 {
		t.Errorf("Delay(25) = %v", got)
	}
	if !math.IsInf(k.Delay(50), 1) || !math.IsInf(k.Delay(60), 1) {
		t.Error("saturated delay should be +Inf")
	}
}

func TestKleinrockThroughputForWindow(t *testing.T) {
	k := Kleinrock{Hops: 4, Mu: 50}
	// E = Hops gives lambda = Mu/2: the optimality condition of [52].
	if got := k.ThroughputForWindow(4); math.Abs(got-25) > 1e-12 {
		t.Errorf("lambda(E=Hops) = %v, want 25", got)
	}
	if got := k.ThroughputForWindow(0); got != 0 {
		t.Errorf("lambda(0) = %v", got)
	}
	// Monotone in E, below Mu.
	prev := 0.0
	for e := 1; e <= 50; e++ {
		lam := k.ThroughputForWindow(e)
		if lam <= prev || lam >= k.Mu {
			t.Fatalf("lambda(%d) = %v not monotone/bounded", e, lam)
		}
		prev = lam
	}
}

func TestKleinrockOptimalWindowMaximisesPower(t *testing.T) {
	for _, hops := range []int{1, 2, 3, 5, 8} {
		k := Kleinrock{Hops: hops, Mu: 40}
		best := k.OptimalWindow()
		if best != hops {
			t.Errorf("OptimalWindow = %d, want %d", best, hops)
		}
		pBest := k.PowerForWindow(best)
		for e := 1; e <= 3*hops+5; e++ {
			if p := k.PowerForWindow(e); p > pBest+1e-9 {
				t.Errorf("hops %d: power(%d)=%v exceeds power(opt=%d)=%v", hops, e, p, best, pBest)
			}
		}
	}
}

func TestKleinrockPowerForWindowEdge(t *testing.T) {
	k := Kleinrock{Hops: 3, Mu: 10}
	if got := k.PowerForWindow(0); got != 0 {
		t.Errorf("PowerForWindow(0) = %v", got)
	}
}

// Objective returns the WINDIM objective F = 1/P = Delay/Throughput, with
// +Inf for degenerate operating points (zero throughput), so that the
// pattern search treats them as maximally undesirable.
func (m *Metrics) Objective() float64 {
	if m.Power <= 0 || math.IsNaN(m.Power) {
		return math.Inf(1)
	}
	return 1 / m.Power
}
