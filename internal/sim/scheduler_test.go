package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topo"
)

// drainBoth pushes the same (at, kind, class, channel, msg) stream into a
// heap and a calendar queue (interleaved with pops where popAfter[i] is
// set) and asserts the two produce the identical pop sequence — not just
// a correctly ordered one. seq is assigned by each queue internally, so
// agreement here pins down the full (at, seq) FIFO contract.
func drainBoth(t *testing.T, name string, events []event, popAfter map[int]int) {
	t.Helper()
	h := &heapQueue{}
	c := newCalendarQueue()
	check := func(i int) {
		t.Helper()
		he, ce := h.pop(), c.pop()
		if he != ce {
			t.Fatalf("%s: pop %d diverges: heap %+v, calendar %+v", name, i, he, ce)
		}
	}
	popped := 0
	for i, e := range events {
		h.pushMsg(e.at, e.kind, int(e.class), int(e.channel), e.msg)
		c.pushMsg(e.at, e.kind, int(e.class), int(e.channel), e.msg)
		for k := 0; k < popAfter[i] && popped < i+1; k++ {
			check(popped)
			popped++
		}
	}
	for ; popped < len(events); popped++ {
		if h.empty() != c.empty() {
			t.Fatalf("%s: emptiness diverges at pop %d", name, popped)
		}
		check(popped)
	}
	if !h.empty() || !c.empty() {
		t.Fatalf("%s: queues not empty after draining all pushes", name)
	}
}

// TestSchedulerPopSequenceAdversarial feeds both queue implementations
// inputs chosen to stress the calendar's weak points: many-way timestamp
// ties (seq FIFO across one bucket), far-future outliers (the vbOf clamp
// and width re-estimation on resize), pushes behind the dequeue scan
// (the curVB re-anchor), and enough volume to force grow and shrink
// resizes.
func TestSchedulerPopSequenceAdversarial(t *testing.T) {
	mk := func(at float64, i int) event {
		return event{at: at, kind: evArrival, class: int16(i % 7), channel: int32(i), msg: int32(i)}
	}

	t.Run("all-simultaneous", func(t *testing.T) {
		var es []event
		for i := 0; i < 200; i++ {
			es = append(es, mk(42.0, i))
		}
		drainBoth(t, "all-simultaneous", es, nil)
	})

	t.Run("tie-clusters", func(t *testing.T) {
		// Clusters of equal timestamps in non-monotone push order.
		var es []event
		times := []float64{3, 1, 3, 2, 1, 2, 3, 1, 0, 0}
		for rep := 0; rep < 30; rep++ {
			for _, at := range times {
				es = append(es, mk(at, len(es)))
			}
		}
		drainBoth(t, "tie-clusters", es, nil)
	})

	t.Run("far-future-outliers", func(t *testing.T) {
		// Outliers past the int64 virtual-bucket range exercise the vbOf
		// clamp; mixing them with dense near-term events wrecks any
		// mean-based width estimate and forces the median-gap one.
		var es []event
		for i := 0; i < 100; i++ {
			switch i % 10 {
			case 3:
				es = append(es, mk(1e18, i))
			case 7:
				es = append(es, mk(math.MaxFloat64/2, i))
			default:
				es = append(es, mk(float64(i)*1e-6, i))
			}
		}
		drainBoth(t, "far-future-outliers", es, nil)
	})

	t.Run("push-behind-scan", func(t *testing.T) {
		// Pop deep into the calendar, then push timestamps behind the
		// scan position to force the curVB re-anchor path.
		var es []event
		for i := 0; i < 40; i++ {
			es = append(es, mk(100+float64(i), i))
		}
		for i := 40; i < 80; i++ {
			es = append(es, mk(float64(i-40), i)) // behind everything popped so far
		}
		drainBoth(t, "push-behind-scan", es, map[int]int{39: 20})
	})

	t.Run("grow-shrink-churn", func(t *testing.T) {
		// Alternating bulk pushes and drains cross the resize thresholds
		// in both directions.
		var es []event
		pops := map[int]int{}
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 600; i++ {
			es = append(es, mk(math.Trunc(r.Float64()*50)/2, i)) // coarse grid: many ties
			if i%37 == 36 {
				pops[i] = 30
			}
		}
		drainBoth(t, "grow-shrink-churn", es, pops)
	})

	t.Run("random-interleaved", func(t *testing.T) {
		for seed := int64(0); seed < 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			var es []event
			pops := map[int]int{}
			for i := 0; i < 500; i++ {
				at := r.Float64() * 1000
				if r.Intn(4) == 0 {
					at = float64(r.Intn(8)) // frequent exact ties
				}
				es = append(es, mk(at, i))
				if r.Intn(3) == 0 {
					pops[i] = r.Intn(4)
				}
			}
			drainBoth(t, "random-interleaved", es, pops)
		}
	})
}

// sameResult asserts two Results are bit-identical: every float compared
// by Float64bits, every count exactly.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	f64 := func(what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: %s differs: %v (%#x) vs %v (%#x)",
				label, what, x, math.Float64bits(x), y, math.Float64bits(y))
		}
	}
	if a.Events != b.Events {
		t.Fatalf("%s: Events differ: %d vs %d", label, a.Events, b.Events)
	}
	if a.Deadlocked != b.Deadlocked {
		t.Fatalf("%s: Deadlocked differs: %v vs %v", label, a.Deadlocked, b.Deadlocked)
	}
	f64("Throughput", a.Throughput, b.Throughput)
	f64("Delay", a.Delay, b.Delay)
	f64("Power", a.Power, b.Power)
	f64("Clock", a.Clock, b.Clock)
	if len(a.PerClass) != len(b.PerClass) {
		t.Fatalf("%s: PerClass length differs", label)
	}
	for r := range a.PerClass {
		x, y := a.PerClass[r], b.PerClass[r]
		if x.Delivered != y.Delivered {
			t.Fatalf("%s: class %d Delivered differs: %d vs %d", label, r, x.Delivered, y.Delivered)
		}
		f64("Offered", x.Offered, y.Offered)
		f64("Throughput", x.Throughput, y.Throughput)
		f64("MeanDelay", x.MeanDelay, y.MeanDelay)
		f64("DelayCI95", x.DelayCI95, y.DelayCI95)
		f64("DelayP95", x.DelayP95, y.DelayP95)
		f64("MeanInNetwork", x.MeanInNetwork, y.MeanInNetwork)
		f64("MeanBacklog", x.MeanBacklog, y.MeanBacklog)
	}
	for l := range a.ChannelUtilization {
		f64("ChannelUtilization", a.ChannelUtilization[l], b.ChannelUtilization[l])
		f64("ChannelMeanQueue", a.ChannelMeanQueue[l], b.ChannelMeanQueue[l])
	}
	if len(a.NodeOccupancy) != len(b.NodeOccupancy) {
		t.Fatalf("%s: NodeOccupancy length differs", label)
	}
	for i := range a.NodeOccupancy {
		if len(a.NodeOccupancy[i]) != len(b.NodeOccupancy[i]) {
			t.Fatalf("%s: NodeOccupancy[%d] length differs", label, i)
		}
		for k := range a.NodeOccupancy[i] {
			f64("NodeOccupancy", a.NodeOccupancy[i][k], b.NodeOccupancy[i][k])
		}
	}
}

// schedulerMatrix is the bit-identity workload set: each entry
// deliberately lights up a different subsystem (source models, length
// distributions, bursty modulation, finite buffers, isarithmic permits,
// propagation delay, background traffic, faults), so the scheduler is
// traced through every event kind.
func schedulerMatrix(t *testing.T) []struct {
	name string
	n    *netmodel.Network
	cfg  Config
} {
	t.Helper()
	tandem := func(rate float64) *netmodel.Network {
		n, err := topo.Tandem(3, 50000, rate, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	canada := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	bg := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	for l := range bg.Channels {
		bg.Channels[l].Background = 0.25
	}
	prop := tandem(20)
	for l := range prop.Channels {
		prop.Channels[l].PropDelay = 0.03
	}
	base := Config{Duration: 60, Warmup: 10}
	with := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	return []struct {
		name string
		n    *netmodel.Network
		cfg  Config
	}{
		{"canada4-throttled", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
		})},
		{"tandem-backlogged", tandem(30), with(func(c *Config) {
			c.Windows = []int{3}
			c.Source = SourceBacklogged
		})},
		{"bursty-hyperexp", tandem(20), with(func(c *Config) {
			c.Windows = []int{4}
			c.Burstiness = 4
			c.BurstOn = 0.5
			c.LengthCV = 2.5
		})},
		{"erlang-correlated", tandem(20), with(func(c *Config) {
			c.Windows = []int{4}
			c.LengthCV = 0.5
			c.CorrelatedLengths = true
		})},
		{"buffers-permits", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
			c.NodeBuffers = make([]int, len(canada.Nodes))
			for i := range c.NodeBuffers {
				c.NodeBuffers[i] = 6
			}
			c.GlobalPermits = 9
		})},
		{"propdelay", prop, with(func(c *Config) {
			c.Windows = []int{4}
		})},
		{"background", bg, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
		})},
		{"faults", canada, with(func(c *Config) {
			c.Windows = []int{4, 4, 3, 2}
			c.Faults = &FaultSpec{
				Outages:      []Outage{{Channel: 1, Start: 20, End: 25}},
				Degradations: []Degradation{{Channel: 0, Start: 25, End: 40, Factor: 0.5}},
				Surges:       []Surge{{Class: 2, Start: 15, End: 30, Factor: 3}},
			}
		})},
	}
}

// TestSchedulerBitIdentity steps every matrix workload event by event
// and checks each calendar pop against the heap reference fed the same
// pushes: before every pop, the heap receives the calendar events pushed
// since the previous pop, in seq order. Both queues number pushes alike,
// so the pops must be identical, (at, seq) included. The stepped run must
// then reproduce Run bit for bit.
func TestSchedulerBitIdentity(t *testing.T) {
	for _, tc := range schedulerMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 12345} {
				cfg := tc.cfg
				cfg.Seed = seed
				ru, err := NewRunner(tc.n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := ru.st
				s.prime()
				h := &heapQueue{}
				var fresh []event
				for pops := 0; ; pops++ {
					fresh = fresh[:0]
					for _, b := range s.events.buckets {
						for _, e := range b {
							if e.seq > h.seq {
								fresh = append(fresh, e)
							}
						}
					}
					sort.Slice(fresh, func(i, j int) bool { return fresh[i].seq < fresh[j].seq })
					for _, e := range fresh {
						h.pushMsg(e.at, e.kind, int(e.class), int(e.channel), e.msg)
					}
					if h.seq != s.events.seq || len(h.items) != s.events.size {
						t.Fatalf("seed %d pop %d: heap holds %d events up to seq %d, calendar %d up to seq %d",
							seed, pops, len(h.items), h.seq, s.events.size, s.events.seq)
					}
					if s.events.size == 0 {
						break
					}
					ce, he := s.events.pop(), h.pop()
					if ce != he {
						t.Fatalf("seed %d pop %d: calendar %+v, heap %+v", seed, pops, ce, he)
					}
					if !s.dispatch(ce) {
						break
					}
				}
				want, err := Run(tc.n, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sameResult(t, tc.name, s.finishRun(), want)
			}
		})
	}
}

// TestRunnerReuseBitIdentity pins the replication-reset invariant: a
// Runner re-armed by reset(seed) must reproduce a fresh one-shot Run
// bit-for-bit, including after prior replications under other seeds have
// dirtied every pooled structure.
func TestRunnerReuseBitIdentity(t *testing.T) {
	for _, tc := range schedulerMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			ru, err := NewRunner(tc.n, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the pooled state with two other seeds first.
			for _, warm := range []uint64{2, 99} {
				if _, err := ru.Run(warm); err != nil {
					t.Fatalf("warm seed %d: %v", warm, err)
				}
			}
			cfg := tc.cfg
			cfg.Seed = 7
			fresh, err := Run(tc.n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ru.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "fresh vs reused", fresh, reused)
			again, err := ru.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reused vs reused", reused, again)
		})
	}
}

// TestZeroAllocSteadyState asserts the throttled steady-state event loop
// allocates nothing per event. The runner first executes the seed's full
// trajectory once so every pooled structure (message slab, channel rings,
// calendar buckets, delay-sample slices) reaches its high-water capacity;
// the same seed is then replayed and stepped through the measured window,
// where any append that grows would be a regression the pool/ring designs
// exist to prevent.
func TestZeroAllocSteadyState(t *testing.T) {
	n := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	cfg := Config{Windows: []int{4, 4, 3, 2}, Duration: 200, Warmup: 20}
	ru, err := NewRunner(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	if _, err := ru.Run(seed); err != nil {
		t.Fatal(err)
	}
	s := ru.st
	s.reset(seed)
	s.prime()
	// Step past the warmup boundary (where stats.reset runs once) into
	// steady state.
	for s.clock < cfg.Warmup+10 {
		if !s.step() {
			t.Fatal("run ended before steady state")
		}
	}
	const events = 2000
	avg := testing.AllocsPerRun(events, func() {
		if !s.step() {
			t.Fatal("run ended inside measured window")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state event loop allocates: %v allocs/event", avg)
	}
}
