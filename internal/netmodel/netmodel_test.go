package netmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/numeric"
	"repro/internal/qnet"
)

// line3 returns a 3-node line network with one 2-hop class.
func line3() *Network {
	return &Network{
		Name:  "line3",
		Nodes: []Node{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Channels: []Channel{
			{Name: "ab", From: 0, To: 1, Capacity: 50000},
			{Name: "bc", From: 1, To: 2, Capacity: 25000},
		},
		Classes: []Class{{
			Name: "c1", Rate: 10, MeanLength: 1000,
			Route: []int{0, 1}, Window: 2,
		}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := line3().Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Network)
		substr string
	}{
		{"no nodes", func(n *Network) { n.Nodes = nil }, "no nodes"},
		{"no channels", func(n *Network) { n.Channels = nil }, "no channels"},
		{"no classes", func(n *Network) { n.Classes = nil }, "no classes"},
		{"bad endpoint", func(n *Network) { n.Channels[0].To = 9 }, "out of range"},
		{"self loop", func(n *Network) { n.Channels[0].To = 0 }, "self-loop"},
		{"zero capacity", func(n *Network) { n.Channels[0].Capacity = 0 }, "capacity"},
		{"zero rate", func(n *Network) { n.Classes[0].Rate = 0 }, "arrival rate"},
		{"nan length", func(n *Network) { n.Classes[0].MeanLength = math.NaN() }, "mean length"},
		{"negative window", func(n *Network) { n.Classes[0].Window = -2 }, "negative window"},
		{"empty route", func(n *Network) { n.Classes[0].Route = nil }, "empty route"},
		{"bad channel ref", func(n *Network) { n.Classes[0].Route = []int{0, 5} }, "references channel"},
		{"duplicate channel", func(n *Network) { n.Classes[0].Route = []int{0, 0} }, "twice"},
	}
	for _, c := range cases {
		n := line3()
		c.mutate(n)
		err := n.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.substr)
		}
	}
}

func TestValidateDiscontinuousRoute(t *testing.T) {
	n := line3()
	n.Channels = append(n.Channels, Channel{Name: "far", From: 0, To: 2, Capacity: 1000})
	n.Nodes = append(n.Nodes, Node{Name: "d"})
	n.Channels = append(n.Channels, Channel{Name: "cd", From: 2, To: 3, Capacity: 1000})
	// Route ab (0-1) then cd (2-3): no shared node.
	n.Classes[0].Route = []int{0, 3}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "discontinuous") {
		t.Fatalf("expected discontinuity error, got %v", err)
	}
}

func TestValidateSharedChannelLengthMismatch(t *testing.T) {
	n := line3()
	n.Classes = append(n.Classes, Class{
		Name: "c2", Rate: 5, MeanLength: 2000, Route: []int{0}, Window: 1,
	})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "different mean lengths") {
		t.Fatalf("expected length-mismatch error, got %v", err)
	}
}

func TestRouteNodesForward(t *testing.T) {
	n := line3()
	nodes, err := n.RouteNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("RouteNodes = %v, want %v", nodes, want)
		}
	}
}

func TestRouteNodesReverseTraversal(t *testing.T) {
	// Half-duplex: a route may traverse a channel against its From->To
	// orientation.
	n := line3()
	n.Classes[0].Route = []int{1, 0} // c -> b -> a
	nodes, err := n.RouteNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("RouteNodes = %v, want %v", nodes, want)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("reverse route should validate: %v", err)
	}
}

func TestRouteNodesSingleHop(t *testing.T) {
	n := line3()
	n.Classes[0].Route = []int{1}
	nodes, err := n.RouteNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0] != 1 || nodes[1] != 2 {
		t.Errorf("RouteNodes = %v", nodes)
	}
}

func TestHopsAndVectors(t *testing.T) {
	n := line3()
	if n.Hops(0) != 2 {
		t.Errorf("Hops = %d", n.Hops(0))
	}
	if hv := n.HopVector(); !hv.Equal(numeric.IntVector{2}) {
		t.Errorf("HopVector = %v", hv)
	}
	if w := n.Windows(); !w.Equal(numeric.IntVector{2}) {
		t.Errorf("Windows = %v", w)
	}
}

func TestRates(t *testing.T) {
	n := line3()
	if got := n.ChannelServiceRate(0, 0); math.Abs(got-50) > 1e-12 {
		t.Errorf("ChannelServiceRate = %v, want 50", got)
	}
	if got := n.BottleneckRate(0); math.Abs(got-25) > 1e-12 {
		t.Errorf("BottleneckRate = %v, want 25", got)
	}
}

func TestClosedModelShape(t *testing.T) {
	n := line3()
	model, sources, err := n.ClosedModel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if model.N() != 3 { // 2 channels + 1 source
		t.Errorf("stations = %d, want 3", model.N())
	}
	if len(sources) != 1 || len(sources[0]) != 1 || sources[0][0] != 2 {
		t.Errorf("sources = %v", sources)
	}
	ch := model.Chains[0]
	if ch.Population != 2 {
		t.Errorf("population = %d, want window 2", ch.Population)
	}
	// Service times: link ab = 1000/50000 = 0.02 s, bc = 0.04 s,
	// source = 1/rate = 0.1 s.
	if math.Abs(ch.ServTime[0]-0.02) > 1e-12 || math.Abs(ch.ServTime[1]-0.04) > 1e-12 {
		t.Errorf("link service times = %v", ch.ServTime)
	}
	if math.Abs(ch.ServTime[2]-0.1) > 1e-12 {
		t.Errorf("source service time = %v", ch.ServTime[2])
	}
	if err := model.Validate(); err != nil {
		t.Errorf("generated model invalid: %v", err)
	}
	if model.Stations[2].Kind != qnet.FCFS {
		t.Errorf("source station kind = %v", model.Stations[2].Kind)
	}
}

func TestClosedModelWindowOverride(t *testing.T) {
	n := line3()
	model, _, err := n.ClosedModel(numeric.IntVector{7})
	if err != nil {
		t.Fatal(err)
	}
	if model.Chains[0].Population != 7 {
		t.Errorf("population = %d", model.Chains[0].Population)
	}
	if _, _, err := n.ClosedModel(numeric.IntVector{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := n.ClosedModel(numeric.IntVector{-1}); err == nil {
		t.Error("expected negative-window error")
	}
}

func TestClosedModelInvalidNetwork(t *testing.T) {
	n := line3()
	n.Channels[0].Capacity = -5
	if _, _, err := n.ClosedModel(nil); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestClosedModelWithAckStation(t *testing.T) {
	n := line3()
	n.Classes[0].AckDelay = 0.05
	model, excluded, err := n.ClosedModel(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 channels + 1 source + 1 ack.
	if model.N() != 4 {
		t.Fatalf("stations = %d, want 4", model.N())
	}
	if len(excluded[0]) != 2 || excluded[0][0] != 2 || excluded[0][1] != 3 {
		t.Errorf("excluded = %v", excluded)
	}
	if model.Stations[3].Kind.String() != "IS" {
		t.Errorf("ack station kind = %v", model.Stations[3].Kind)
	}
	if got := model.Chains[0].ServTime[3]; got != 0.05 {
		t.Errorf("ack service time = %v", got)
	}
	// Chain visits 4 stations cyclically.
	if model.Chains[0].Visits[3] != 1 {
		t.Error("chain does not visit the ack station")
	}
}

func TestValidateRejectsBadAckDelay(t *testing.T) {
	n := line3()
	n.Classes[0].AckDelay = -1
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "ack delay") {
		t.Fatalf("expected ack-delay error, got %v", err)
	}
	n.Classes[0].AckDelay = math.Inf(1)
	if err := n.Validate(); err == nil {
		t.Fatal("expected error for infinite ack delay")
	}
}
