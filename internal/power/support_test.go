package power

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/convolution"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/qnet"
	"repro/internal/topo"
)

// denseFromSolution is the power read before it learned the visit lists:
// every chain sums its queue lengths over every station of the model,
// skipping the excluded ones. It is the reference the support-only read in
// FromSolutionInto must reproduce bit for bit.
func denseFromSolution(net *qnet.Network, sol *mva.Solution, excluded [][]int) *Metrics {
	nCh := net.R()
	m := &Metrics{ClassThroughput: make([]float64, nCh), ClassDelay: make([]float64, nCh)}
	totalN := 0.0
	for r := 0; r < nCh; r++ {
		lam := sol.Throughput[r]
		m.ClassThroughput[r] = lam
		m.Throughput += lam
		n := 0.0
		for i := 0; i < net.N(); i++ {
			skip := false
			for _, e := range excluded[r] {
				if i == e {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			n += sol.QueueLen.At(i, r)
		}
		totalN += n
		if lam > 0 {
			m.ClassDelay[r] = n / lam
		}
	}
	if m.Throughput > 0 {
		m.Delay = totalN / m.Throughput
	}
	if m.Delay > 0 {
		m.Power = m.Throughput / m.Delay
	}
	return m
}

// supportSolvers are every solver whose solutions reach the power read:
// the three fixed points and exact MVA (qsolve, core.Engine), the
// convolution solver (qsolve) and its lattice engine (core's exact
// oracle), and the CTMC (qsolve). The CTMC runs only on small state
// spaces.
var supportSolvers = []struct {
	name  string
	small bool
	solve func(*qnet.Network) (*mva.Solution, error)
}{
	{"sigma", false, func(n *qnet.Network) (*mva.Solution, error) { return mva.Approximate(n, mva.Options{}) }},
	{"schweitzer", false, func(n *qnet.Network) (*mva.Solution, error) {
		return mva.Approximate(n, mva.Options{Method: mva.Schweitzer})
	}},
	{"linearizer", false, func(n *qnet.Network) (*mva.Solution, error) { return mva.Linearizer(n, mva.Options{}) }},
	{"exact-mva", false, mva.ExactMultichain},
	{"convolution", false, func(n *qnet.Network) (*mva.Solution, error) {
		c, err := convolution.Solve(n)
		if err != nil {
			return nil, err
		}
		return &mva.Solution{Throughput: c.Throughput, QueueLen: c.QueueLen}, nil
	}},
	{"convolution-engine", false, func(n *qnet.Network) (*mva.Solution, error) {
		h := n.Populations()
		eng, err := convolution.NewEngine(n, h, convolution.EngineOptions{})
		if err != nil {
			return nil, err
		}
		c, err := eng.MeansAt(h)
		if err != nil {
			return nil, err
		}
		return &mva.Solution{Throughput: c.Throughput, QueueLen: c.QueueLen}, nil
	}},
	{"ctmc", true, func(n *qnet.Network) (*mva.Solution, error) {
		c, err := markov.Solve(n)
		if err != nil {
			return nil, err
		}
		return &mva.Solution{Throughput: c.Throughput, QueueLen: c.QueueLen}, nil
	}},
}

// TestFromSolutionSupportMatchesDense pins the support-only power read to
// the dense sum over all stations, Float64bits for bits, under every
// solver, on Canada-4 as published and on a variant whose classes 1 and 3
// carry acknowledgement stations (so their exclusion lists hold the
// source and the ack station) and whose Winnipeg–Toronto channel has a
// propagation-delay station shared by three classes.
func TestFromSolutionSupportMatchesDense(t *testing.T) {
	plain := topo.Canada4Class(6, 6, 6, 12)
	acked := topo.Canada4Class(6, 6, 6, 12)
	acked.Classes[0].AckDelay = 0.05
	acked.Classes[2].AckDelay = 0.02
	acked.Channels[topo.ChWT].PropDelay = 0.01
	windows := []numeric.IntVector{{1, 1, 1, 1}, {1, 1, 1, 2}, {2, 1, 2, 1}, {3, 2, 2, 4}, {4, 4, 3, 1}, {0, 2, 1, 3}}
	compared := 0
	for _, net := range []*netmodel.Network{plain, acked} {
		for _, w := range windows {
			model, excluded, err := net.ClosedModel(w)
			if err != nil {
				t.Fatal(err)
			}
			if net == acked && len(excluded[0]) != 2 {
				t.Fatalf("class 1 excludes %v; want its source and its ack station", excluded[0])
			}
			sp := qnet.Compile(model)
			for _, s := range supportSolvers {
				if s.small && w.Sum() > 6 {
					continue
				}
				tag := fmt.Sprintf("%s windows %v %s", net.Name, w, s.name)
				sol, err := s.solve(model)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want := denseFromSolution(model, sol, excluded)
				got, err := FromSolution(model, sol, excluded)
				if err != nil {
					t.Fatal(err)
				}
				metricsBitsEqual(t, tag, got, want)
				into := &Metrics{}
				if err := FromSolutionInto(into, sp, sol, excluded); err != nil {
					t.Fatal(err)
				}
				metricsBitsEqual(t, tag+" (into)", into, want)
				compared++
			}
		}
	}
	if compared < 70 {
		t.Fatalf("only %d comparisons ran", compared)
	}
}

func metricsBitsEqual(t *testing.T, tag string, got, want *Metrics) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Throughput, want.Throughput) || !same(got.Delay, want.Delay) || !same(got.Power, want.Power) {
		t.Errorf("%s: throughput/delay/power %v/%v/%v, dense %v/%v/%v", tag,
			got.Throughput, got.Delay, got.Power, want.Throughput, want.Delay, want.Power)
	}
	for r := range want.ClassDelay {
		if !same(got.ClassDelay[r], want.ClassDelay[r]) || !same(got.ClassThroughput[r], want.ClassThroughput[r]) {
			t.Errorf("%s class %d: delay %v, dense %v", tag, r, got.ClassDelay[r], want.ClassDelay[r])
		}
	}
}
