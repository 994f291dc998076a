package topo

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

func TestCanada2ClassStructure(t *testing.T) {
	n := Canada2Class(12.5, 12.5)
	if err := n.Validate(); err != nil {
		t.Fatalf("Canada2Class invalid: %v", err)
	}
	if len(n.Nodes) != 6 || len(n.Channels) != 7 || len(n.Classes) != 2 {
		t.Fatalf("shape: %d nodes, %d channels, %d classes", len(n.Nodes), len(n.Channels), len(n.Classes))
	}
	// Both classes have 4 hops.
	if !n.HopVector().Equal(numeric.IntVector{4, 4}) {
		t.Errorf("HopVector = %v", n.HopVector())
	}
	// Five 50 kb/s channels, two 25 kb/s.
	n50, n25 := 0, 0
	for _, ch := range n.Channels {
		switch ch.Capacity {
		case 50000:
			n50++
		case 25000:
			n25++
		}
	}
	if n50 != 5 || n25 != 2 {
		t.Errorf("capacities: %d at 50k, %d at 25k", n50, n25)
	}
	// Both classes bottleneck at 25 msg/s (symmetric parameters).
	for r := 0; r < 2; r++ {
		if got := n.BottleneckRate(r); math.Abs(got-25) > 1e-12 {
			t.Errorf("class %d bottleneck = %v, want 25", r, got)
		}
	}
	// Classes interact at exactly one channel (the thesis's "little
	// interaction"): WT.
	shared := 0
	use := map[int][2]bool{}
	for r, c := range n.Classes {
		for _, l := range c.Route {
			u := use[l]
			u[r] = true
			use[l] = u
		}
	}
	for l, u := range use {
		if u[0] && u[1] {
			shared++
			if l != ChWT {
				t.Errorf("unexpected shared channel %d", l)
			}
		}
	}
	if shared != 1 {
		t.Errorf("classes share %d channels, want 1", shared)
	}
	// The closed model has 9 queues (7 channels + 2 sources), as in
	// Fig. 4.6.
	model, sources, err := n.ClosedModel(numeric.IntVector{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if model.N() != 9 || len(sources) != 2 {
		t.Errorf("closed model has %d stations, %d sources", model.N(), len(sources))
	}
}

func TestCanada4ClassStructure(t *testing.T) {
	n := Canada4Class(6, 6, 6, 12)
	if err := n.Validate(); err != nil {
		t.Fatalf("Canada4Class invalid: %v", err)
	}
	// Hop counts (4, 4, 3, 1): the Kleinrock baseline of Table 4.12.
	if !n.HopVector().Equal(numeric.IntVector{4, 4, 3, 1}) {
		t.Errorf("HopVector = %v", n.HopVector())
	}
	// Same 7 channels: the closed model has 11 queues (Fig. 4.11).
	model, _, err := n.ClosedModel(numeric.IntVector{4, 4, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.N() != 11 {
		t.Errorf("closed model has %d stations, want 11", model.N())
	}
	// Bottlenecks 25, 25, 25, 50: arrival ratio 1:1:1:2 maximises power
	// in Table 4.12.
	want := []float64{25, 25, 25, 50}
	for r := range want {
		if got := n.BottleneckRate(r); math.Abs(got-want[r]) > 1e-12 {
			t.Errorf("class %d bottleneck = %v, want %v", r, got, want[r])
		}
	}
}

func TestTandem(t *testing.T) {
	n, err := Tandem(4, 50000, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Channels) != 4 || n.Hops(0) != 4 {
		t.Errorf("tandem shape wrong")
	}
	if _, err := Tandem(0, 1, 1, 1); err == nil {
		t.Error("expected error for 0 hops")
	}
}
