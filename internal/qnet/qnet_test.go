package qnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/numeric"
)

// twoStationNet returns a minimal valid 2-station, 1-chain closed network.
func twoStationNet() *Network {
	return &Network{
		Stations: []Station{{Name: "a"}, {Name: "b"}},
		Chains: []Chain{{
			Name:       "c0",
			Population: 3,
			Visits:     []float64{1, 1},
			ServTime:   []float64{0.5, 0.25},
		}},
	}
}

func TestDisciplineString(t *testing.T) {
	cases := map[Discipline]string{FCFS: "FCFS", PS: "PS", LCFSPR: "LCFSPR", IS: "IS", Discipline(9): "Discipline(9)"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestRateFactorSingleServer(t *testing.T) {
	s := Station{}
	if s.RateFactor(0) != 0 || s.RateFactor(-1) != 0 {
		t.Error("RateFactor for empty queue should be 0")
	}
	for j := 1; j <= 5; j++ {
		if got := s.RateFactor(j); got != 1 {
			t.Errorf("single server RateFactor(%d) = %v", j, got)
		}
	}
}

func TestRateFactorMultiServer(t *testing.T) {
	s := Station{Servers: 3}
	want := []float64{1, 2, 3, 3, 3}
	for j := 1; j <= 5; j++ {
		if got := s.RateFactor(j); got != want[j-1] {
			t.Errorf("3-server RateFactor(%d) = %v, want %v", j, got, want[j-1])
		}
	}
}

func TestRateFactorIS(t *testing.T) {
	s := Station{Kind: IS}
	for j := 1; j <= 4; j++ {
		if got := s.RateFactor(j); got != float64(j) {
			t.Errorf("IS RateFactor(%d) = %v", j, got)
		}
	}
}

func TestRateFactorExplicit(t *testing.T) {
	s := Station{RateFactors: []float64{1, 1.8, 2.2}}
	if got := s.RateFactor(2); got != 1.8 {
		t.Errorf("RateFactor(2) = %v", got)
	}
	if got := s.RateFactor(9); got != 2.2 {
		t.Errorf("RateFactor(9) = %v, want clamp to last", got)
	}
}

func TestIsQueueDependent(t *testing.T) {
	if (&Station{}).IsQueueDependent() {
		t.Error("single-server FCFS misreported as queue-dependent")
	}
	if !(&Station{Servers: 2}).IsQueueDependent() {
		t.Error("2-server station should be queue-dependent")
	}
	if !(&Station{Kind: IS}).IsQueueDependent() {
		t.Error("IS should be queue-dependent")
	}
	if (&Station{RateFactors: []float64{2, 2}}).IsQueueDependent() {
		t.Error("constant rate factors are not queue-dependent")
	}
	if !(&Station{RateFactors: []float64{1, 2}}).IsQueueDependent() {
		t.Error("varying rate factors are queue-dependent")
	}
}

func TestValidateOK(t *testing.T) {
	if err := twoStationNet().Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Network)
		substr string
	}{
		{"no stations", func(n *Network) { n.Stations = nil }, "no stations"},
		{"no chains", func(n *Network) { n.Chains = nil }, "no chains"},
		{"dim mismatch", func(n *Network) { n.Chains[0].Visits = []float64{1} }, "visits"},
		{"negative pop", func(n *Network) { n.Chains[0].Population = -1 }, "negative population"},
		{"negative visit", func(n *Network) { n.Chains[0].Visits[0] = -1 }, "visit ratio"},
		{"zero service where visited", func(n *Network) { n.Chains[0].ServTime[0] = 0 }, "service time"},
		{"nan service", func(n *Network) { n.Chains[0].ServTime[0] = math.NaN() }, "service time"},
		{"no visits", func(n *Network) { n.Chains[0].Visits = []float64{0, 0} }, "visits no station"},
		{"bad rate factor", func(n *Network) { n.Stations[0].RateFactors = []float64{0} }, "rate factor"},
	}
	for _, c := range cases {
		n := twoStationNet()
		c.mutate(n)
		err := n.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
}

func TestValidateFCFSClassIndependence(t *testing.T) {
	n := twoStationNet()
	n.Chains = append(n.Chains, Chain{
		Name:       "c1",
		Population: 1,
		Visits:     []float64{1, 0},
		ServTime:   []float64{0.9, 0}, // differs from chain 0's 0.5 at FCFS station 0
	})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "class-dependent") {
		t.Fatalf("expected class-dependence error, got %v", err)
	}
	// PS stations may be class-dependent.
	n.Stations[0].Kind = PS
	if err := n.Validate(); err != nil {
		t.Fatalf("PS station should allow class-dependent service: %v", err)
	}
}

func TestWithPopulations(t *testing.T) {
	n := twoStationNet()
	m, err := n.WithPopulations(numeric.IntVector{7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chains[0].Population != 7 || n.Chains[0].Population != 3 {
		t.Error("WithPopulations wrong or mutated original")
	}
	if _, err := n.WithPopulations(numeric.IntVector{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := n.WithPopulations(numeric.IntVector{-1}); err == nil {
		t.Error("expected negativity error")
	}
}

func TestChainStationsAndStationChains(t *testing.T) {
	n := &Network{
		Stations: make([]Station, 3),
		Chains: []Chain{
			{Name: "a", Population: 1, Visits: []float64{1, 0, 1}, ServTime: []float64{1, 0, 1}},
			{Name: "b", Population: 1, Visits: []float64{0, 1, 1}, ServTime: []float64{0, 1, 1}},
		},
	}
	cs := n.ChainStations()
	if len(cs[0]) != 2 || cs[0][0] != 0 || cs[0][1] != 2 {
		t.Errorf("ChainStations[0] = %v", cs[0])
	}
}

func TestCyclicChain(t *testing.T) {
	c, err := CyclicChain("vc1", 5, 4, []int{0, 2, 3}, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Population != 4 {
		t.Errorf("Population = %d", c.Population)
	}
	if c.Visits[0] != 1 || c.Visits[1] != 0 || c.Visits[2] != 1 || c.Visits[3] != 1 || c.Visits[4] != 0 {
		t.Errorf("Visits = %v", c.Visits)
	}
	if c.ServTime[3] != 0.3 {
		t.Errorf("ServTime = %v", c.ServTime)
	}
	if c.Demand(2) != 0.2 {
		t.Errorf("Demand(2) = %v", c.Demand(2))
	}
}

func TestCyclicChainErrors(t *testing.T) {
	if _, err := CyclicChain("x", 3, 1, nil, nil); err == nil {
		t.Error("expected empty-route error")
	}
	if _, err := CyclicChain("x", 3, 1, []int{0}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := CyclicChain("x", 3, 1, []int{7}, []float64{1}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := CyclicChain("x", 3, 1, []int{0, 0}, []float64{1, 1}); err == nil {
		t.Error("expected duplicate-station error")
	}
}
