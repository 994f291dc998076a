package main

// netsim_replications is the validation path: batches of independent
// simulator replications of the Fig. 4.6 Canada-4 workload. The event loop,
// the calendar queue and the random streams dominate; it touches no
// analytic solver and no disk.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topo"
)

// simReps is the replications per batch; a batch is one op.
const simReps = 8

func netsimNetwork() *netmodel.Network { return topo.Canada4Class(9.957, 4.419, 7.656, 7.968) }

// netsimConfig is one batch: the windows WINDIM picks for the network,
// 2,000 simulated seconds after a 200 s warm-up, a 100 s outage of the
// Edmonton–Winnipeg trunk and a 300 s halving of Winnipeg–Toronto.
func netsimConfig(seed uint64) sim.Config {
	return sim.Config{
		Windows:  numeric.IntVector{4, 4, 3, 2},
		Seed:     seed,
		Duration: 2000,
		Warmup:   200,
		Faults: &sim.FaultSpec{
			Outages:      []sim.Outage{{Channel: topo.ChEW, Start: 600, End: 700}},
			Degradations: []sim.Degradation{{Channel: topo.ChWT, Start: 1000, End: 1300, Factor: 0.5}},
		},
	}
}

// netsimInputs is the batch seeds.
func netsimInputs(r *run) []uint64 {
	n := 400
	if r.quick {
		n = 4
	}
	g := r.rng(2)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = g.Uint64()
	}
	return seeds
}

// fingerprint hashes a value's full printed form, floats at full
// precision, so two results compare bit-for-bit.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return h.Sum64()
}

func runNetsim(r *run) error {
	seeds := netsimInputs(r)
	var n *netmodel.Network
	// Set-up builds the model and runs one untimed batch.
	setups, err := timeSetups(r, func(bool) error {
		n = netsimNetwork()
		_, err := batch(n, netsimConfig(seeds[0]))
		return err
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return traceNetsim(r, n, seeds)
	}
	e := endToEnd{setups: setups}
	batches, lat, window, u := sweepNetsim(r, n, seeds, r.seconds, r.timedOps())
	e.latency, e.window, e.cpu, e.rss = lat, window, u.cpu, u.maxRSS
	for i, b := range batches {
		if b == nil {
			continue
		}
		e.addResult(i, b.Power)
		// Replication 0 of every 16th batch must be sim.Run at its seed.
		if i%16 == 0 {
			cfg := netsimConfig(seeds[i%len(seeds)])
			cfg.Seed = b.Reps[0].Seed
			one, err := sim.Run(n, cfg)
			if err != nil {
				r.mismatch("netsim batch %d: sim.Run: %v", i, err)
			} else if fingerprint(one) != fingerprint(b.Reps[0].Result) {
				r.mismatch("netsim batch %d: replication 0 differs from sim.Run at seed %d", i, cfg.Seed)
			}
		}
	}
	e.report(r)
	return nil
}

// batch runs one op and treats any failed replication as a failed op.
func batch(n *netmodel.Network, cfg sim.Config) (*sim.BatchResult, error) {
	b, err := sim.RunReplications(context.Background(), n, cfg, simReps, searchWorkers)
	if err != nil {
		return nil, err
	}
	if b.Completed != simReps {
		return nil, fmt.Errorf("%d of %d replications failed", b.Failed, simReps)
	}
	return b, nil
}

// sweepNetsim runs batches over the seeds in order for timedLoop; a failed
// batch leaves a nil entry.
func sweepNetsim(r *run, n *netmodel.Network, seeds []uint64, d time.Duration, minOps int) ([]*sim.BatchResult, []time.Duration, time.Duration, usage) {
	var out []*sim.BatchResult
	lat, window, u := timedLoop(r, d, minOps, func(i int) error {
		b, err := batch(n, netsimConfig(seeds[i%len(seeds)]))
		out = append(out, b)
		return err
	})
	return out, lat, window, u
}

// batchTrace is one traced batch.
type batchTrace struct {
	ok         bool
	wall       time.Duration
	builds     []time.Duration
	reps       []time.Duration
	prints     [simReps]uint64
	events     int64
	deadlocked int
}

// traceBatch is sim.RunReplications taken apart: a Runner per worker
// goroutine and Runner.Run per replication at rng.SubSeed(seed, rep).
func traceBatch(tr *tracer, op int, n *netmodel.Network, cfg sim.Config) batchTrace {
	var t batchTrace
	root := tr.begin()
	var next atomic.Int64
	results := make([]*sim.Result, simReps)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < searchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := tr.begin()
			runner, err := sim.NewRunner(n, cfg)
			built := tr.end(b, "sim.NewRunner", op, root.id).dur()
			mu.Lock()
			t.builds = append(t.builds, built)
			mu.Unlock()
			if err != nil {
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= simReps {
					return
				}
				s := tr.begin()
				res, err := runner.Run(rng.SubSeed(cfg.Seed, uint64(i)))
				took := tr.end(s, "sim.Runner.Run", op, root.id).dur()
				if err != nil {
					continue
				}
				mu.Lock()
				results[i] = res
				t.reps = append(t.reps, took)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.wall = tr.end(root, "op", op, 0).dur()
	t.ok = true
	for i, res := range results {
		if res == nil {
			t.ok = false
			continue
		}
		t.prints[i] = fingerprint(res)
		t.events += res.Events
		if res.Deadlocked {
			t.deadlocked++
		}
	}
	return t
}

// traceNetsim runs the traced batches for half the run's duration, then
// RunReplications over the same seeds: the reference every traced
// replication must equal, and the baseline of the tracing overhead.
func traceNetsim(r *run, n *netmodel.Network, seeds []uint64) error {
	var ops []batchTrace
	_, traced, _ := timedLoop(r, r.seconds/2, r.exactOps(), func(i int) error {
		t := traceBatch(r.tr, i, n, netsimConfig(seeds[i%len(seeds)]))
		ops = append(ops, t)
		if !t.ok {
			return fmt.Errorf("netsim batch %d: a replication failed", i)
		}
		return nil
	})
	ref, _, untraced, _ := sweepNetsim(r, n, seeds, 0, len(ops))
	for i, t := range ops {
		if ref[i] == nil || !t.ok {
			continue
		}
		for k, rep := range ref[i].Reps {
			if fingerprint(rep.Result) != t.prints[k] {
				r.mismatch("netsim batch %d replication %d: Runner.Run differs from RunReplications", i, k)
			}
		}
	}

	var builds, reps []float64
	var repSum, wallSum time.Duration
	var events, prefixEvents int64
	deadlocked := 0
	for i, t := range ops {
		builds = append(builds, msAll(t.builds)...)
		for _, d := range t.reps {
			reps = append(reps, ms(d))
			repSum += d
		}
		wallSum += t.wall
		events += t.events
		if i < r.exactOps() {
			prefixEvents += t.events
			deadlocked += t.deadlocked
		}
	}
	prefix := fmt.Sprintf("first %d batches", min(r.exactOps(), len(ops)))
	r.emit("sim.events", float64(prefixEvents), "count", prefix)
	r.emit("sim.ns_per_event", float64(repSum.Nanoseconds())/float64(max(events, 1)), "ns", "replication wall / events")
	r.emit("sim.runner_build_ms", median(builds), "ms", "median")
	v, cnt, err := percentile(reps, 0.5)
	r.emitPercentile("sim.rep_ms_p50", v, "ms", cnt, err)
	v, cnt, err = percentile(reps, 0.9)
	r.emitPercentile("sim.rep_ms_p90", v, "ms", cnt, err)
	r.emit("sim.batch_idle_frac", 1-repSum.Seconds()/(searchWorkers*wallSum.Seconds()), "ratio",
		fmt.Sprintf("1 - replication time / (%d x batch wall)", searchWorkers))
	r.emit("sim.deadlocked", float64(deadlocked), "count", prefix)
	reportOverhead(r, len(ops), traced, len(ref), untraced)
	return nil
}
