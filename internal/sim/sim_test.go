package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/topo"
)

// evaluateExact solves the closed model exactly and returns its power
// metrics (the core package is not importable here: it imports sim).
func evaluateExact(t *testing.T, n *netmodel.Network, w numeric.IntVector) *power.Metrics {
	t.Helper()
	model, excluded, err := n.ClosedModel(w)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mva.ExactMultichain(model)
	if err != nil {
		t.Fatal(err)
	}
	m, err := power.FromSolution(model, sol, excluded)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tandem1 returns a single-channel network: source -> one 50 kb/s link.
func tandem1(rate float64) *netmodel.Network {
	n, err := topo.Tandem(1, 50000, rate, 1000)
	if err != nil {
		panic(err)
	}
	return n
}

func TestRunValidatesConfig(t *testing.T) {
	n := tandem1(10)
	cases := []Config{
		{},                         // no duration
		{Duration: -1},             // negative duration
		{Duration: 10, Warmup: 20}, // warmup beyond duration
		{Duration: 10, Warmup: -1}, // negative warmup
		{Duration: 10, Windows: numeric.IntVector{1, 2}}, // window length
		{Duration: 10, Windows: numeric.IntVector{-1}},   // negative window
		{Duration: 10, NodeBuffers: []int{1}},            // buffer length
		{Duration: 10, GlobalPermits: -1},                // negative permits
		{Duration: 10, Batches: 1},                       // too few batches
	}
	for i, cfg := range cases {
		if _, err := Run(n, cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	bad := tandem1(0)
	if _, err := Run(bad, Config{Duration: 1}); err == nil {
		t.Error("expected network validation error")
	}
}

func TestRunDeterministic(t *testing.T) {
	n := tandem1(20)
	n.Classes[0].Window = 3
	cfg := Config{Duration: 200, Warmup: 20, Seed: 42}
	a, err := Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Delay != b.Delay || a.PerClass[0].Delivered != b.PerClass[0].Delivered {
		t.Error("same seed gave different results")
	}
	c, err := Run(n, Config{Duration: 200, Warmup: 20, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.PerClass[0].Delivered == c.PerClass[0].Delivered {
		t.Error("different seeds gave identical delivery counts (suspicious)")
	}
}

// The model-faithful configuration must converge to the exact closed-chain
// solution: this is the simulator's core validation.
func TestSimMatchesExactMVATandem(t *testing.T) {
	n := tandem1(30) // rho = 30/50 at the link
	n.Classes[0].Window = 3
	model, sources, err := n.ClosedModel(nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mva.ExactMultichain(model)
	if err != nil {
		t.Fatal(err)
	}
	lamWant := sol.Throughput[0]
	nWant := sol.QueueLen.At(0, 0) // link queue
	_ = sources
	res, err := Run(n, Config{Duration: 20000, Warmup: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Throughput-lamWant) / lamWant; rel > 0.02 {
		t.Errorf("throughput %v vs exact %v (rel %v)", res.Throughput, lamWant, rel)
	}
	if rel := math.Abs(res.ChannelMeanQueue[0]-nWant) / nWant; rel > 0.05 {
		t.Errorf("link queue %v vs exact %v (rel %v)", res.ChannelMeanQueue[0], nWant, rel)
	}
	// Little's law inside the simulator: mean in-network = lambda * delay.
	little := res.Throughput * res.Delay
	if rel := math.Abs(little-res.PerClass[0].MeanInNetwork) / little; rel > 0.02 {
		t.Errorf("Little violated: lambda*T = %v, N = %v", little, res.PerClass[0].MeanInNetwork)
	}
}

func TestSimMatchesExactMVACanada(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	w := numeric.IntVector{4, 4}
	exact := evaluateExact(t, n, w)
	res, err := Run(n, Config{Windows: w, Duration: 20000, Warmup: 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Throughput-exact.Throughput) / exact.Throughput; rel > 0.02 {
		t.Errorf("throughput %v vs exact %v", res.Throughput, exact.Throughput)
	}
	if rel := math.Abs(res.Delay-exact.Delay) / exact.Delay; rel > 0.05 {
		t.Errorf("delay %v vs exact %v", res.Delay, exact.Delay)
	}
	if rel := math.Abs(res.Power-exact.Power) / exact.Power; rel > 0.06 {
		t.Errorf("power %v vs exact %v", res.Power, exact.Power)
	}
	// The exact value should usually be inside a few CI widths.
	for r := 0; r < 2; r++ {
		if res.PerClass[r].DelayCI95 <= 0 {
			t.Errorf("class %d: no CI computed", r)
		}
	}
}

func TestWindowLimitsInNetworkPopulation(t *testing.T) {
	// With window E, at most E messages of the class are ever inside.
	n := tandem1(100) // heavy overload
	n.Classes[0].Window = 2
	res, err := Run(n, Config{Duration: 500, Warmup: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClass[0].MeanInNetwork > 2+1e-9 {
		t.Errorf("mean in-network %v exceeds window 2", res.PerClass[0].MeanInNetwork)
	}
	// Throughput is window-limited below the link capacity 50.
	if res.Throughput >= 50 {
		t.Errorf("throughput %v at or above capacity", res.Throughput)
	}
}

func TestThroughputMonotoneInWindow(t *testing.T) {
	n := topo.Canada2Class(40, 40)
	prev := 0.0
	for _, e := range []int{1, 2, 4, 8} {
		res, err := Run(n, Config{
			Windows: numeric.IntVector{e, e}, Duration: 4000, Warmup: 400, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-0.5 { // allow small noise
			t.Errorf("throughput fell from %v to %v at window %d", prev, res.Throughput, e)
		}
		prev = res.Throughput
	}
}

func TestBackloggedSourceSaturation(t *testing.T) {
	// Overloaded backlogged source: offered exceeds throughput and the
	// backlog builds.
	n := tandem1(100)
	n.Classes[0].Window = 3
	res, err := Run(n, Config{Duration: 2000, Warmup: 200, Seed: 9, Source: SourceBacklogged})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClass[0].Offered < 90 {
		t.Errorf("offered %v, want ~100", res.PerClass[0].Offered)
	}
	if res.Throughput > 51 {
		t.Errorf("throughput %v beyond capacity", res.Throughput)
	}
	if res.PerClass[0].MeanBacklog < 10 {
		t.Errorf("backlog %v; expected heavy buildup", res.PerClass[0].MeanBacklog)
	}
	if got := SourceBacklogged.String(); got != "backlogged" {
		t.Errorf("String = %q", got)
	}
	if got := SourceModel(9).String(); got == "" {
		t.Error("unknown SourceModel string empty")
	}
}

func TestUnlimitedWindow(t *testing.T) {
	// Window 0 = no end-to-end control: with a stable load the network
	// behaves like the open chain.
	n := tandem1(25) // rho = 0.5
	n.Classes[0].Window = 0
	res, err := Run(n, Config{Duration: 8000, Warmup: 800, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Open M/M/1 at rho=0.5: T = (1/50)/(1-0.5) = 0.04.
	if rel := math.Abs(res.Delay-0.04) / 0.04; rel > 0.08 {
		t.Errorf("delay %v vs open M/M/1 0.04", res.Delay)
	}
	if rel := math.Abs(res.Throughput-25) / 25; rel > 0.03 {
		t.Errorf("throughput %v vs 25", res.Throughput)
	}
}

func TestCorrelatedLengths(t *testing.T) {
	// Correlated lengths break the independence assumption; the run must
	// still be sane (conservation, bounded utilisation).
	n := topo.Canada2Class(20, 20)
	res, err := Run(n, Config{
		Windows: numeric.IntVector{4, 4}, Duration: 4000, Warmup: 400,
		Seed: 17, CorrelatedLengths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	for l, u := range res.ChannelUtilization {
		if u < 0 || u > 1 {
			t.Errorf("channel %d utilisation %v", l, u)
		}
	}
}

func TestNodeBuffersBlockAndCanDeadlock(t *testing.T) {
	// Two classes in opposite directions over a 2-node pair of channels
	// with K=1 buffers and no windows: classic store-and-forward
	// deadlock bait. The run must terminate and report sane stats
	// either way.
	n := &netmodel.Network{
		Name:  "duel",
		Nodes: []netmodel.Node{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Channels: []netmodel.Channel{
			{Name: "ab", From: 0, To: 1, Capacity: 50000},
			{Name: "bc", From: 1, To: 2, Capacity: 50000},
		},
		Classes: []netmodel.Class{
			{Name: "fwd", Rate: 40, MeanLength: 1000, Route: []int{0, 1}},
			{Name: "rev", Rate: 40, MeanLength: 1000, Route: []int{1, 0}},
		},
	}
	res, err := Run(n, Config{
		Duration: 200, Warmup: 0, Seed: 21,
		NodeBuffers: []int{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With K=1 everywhere and opposing flows, both directions fight for
	// node b; deliveries still happen before any freeze.
	if res.PerClass[0].Delivered == 0 && res.PerClass[1].Delivered == 0 && !res.Deadlocked {
		t.Error("no deliveries and no deadlock: the run did nothing")
	}
}

func TestIsarithmicPermitsCapPopulation(t *testing.T) {
	n := topo.Canada2Class(60, 60)
	res, err := Run(n, Config{
		Duration: 2000, Warmup: 200, Seed: 23, GlobalPermits: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.PerClass[0].MeanInNetwork + res.PerClass[1].MeanInNetwork
	if total > 3+1e-9 {
		t.Errorf("mean network population %v exceeds permit pool 3", total)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput with permits")
	}
}

func TestDeterministicAcrossModes(t *testing.T) {
	// Sanity that the collector horizon handles warmup = 0 and a warmup
	// that no event precedes.
	n := tandem1(5)
	n.Classes[0].Window = 1
	if _, err := Run(n, Config{Duration: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(n, Config{Duration: 10, Warmup: 9.99, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStateSanityInvariant(t *testing.T) {
	// Drive a busy configuration and check message conservation at the
	// end via the internal invariant.
	n := topo.Canada4Class(20, 20, 20, 40)
	windows := numeric.IntVector{3, 3, 3, 2}
	s, err := newState(n, Config{Duration: 300, Warmup: 0, Seed: 31, Batches: 20}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	if err := s.sanity(); err != nil {
		t.Error(err)
	}
}

// sanity returns a diagnostic error if the state's invariants break: no
// node occupancy is negative, and the messages on channels match the
// node buffers' count.
func (s *state) sanity() error {
	total := 0
	for l := range s.channels {
		ch := &s.channels[l]
		for i := 0; i < ch.n; i++ {
			mi := ch.q[(ch.head+i)&(len(ch.q)-1)]
			if s.msgs[mi].class >= 0 {
				total++
			}
		}
		if ch.blockedMsg != msgNone {
			total++
		}
	}
	inNodes := 0
	for _, c := range s.nodeCount {
		if c < 0 {
			return fmt.Errorf("sim: negative node occupancy")
		}
		inNodes += c
	}
	if total != inNodes {
		return fmt.Errorf("sim: %d messages on channels but %d in node buffers", total, inNodes)
	}
	return nil
}
