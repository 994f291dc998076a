package main

// shard_fleet is the windim-shard path from plan to merge: an exhaustive
// exact-engine search of Canada-4 split into slabs over three simulated
// hosts of the fake transport. Launches, fsynced leases and slab
// checkpoints, the coordinator's poll, the merge and the per-slab
// convolution lattices dominate; it runs no AMVA and no HTTP.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/shard"
	"repro/internal/shard/transport"
	"repro/internal/topo"
)

// shardBox is the per-class window bound: 10^4 = 10,000 candidates, small
// enough that a run completes the 100 searches a p90 needs.
const shardBox = 10

var canada4Rates = []float64{9.957, 4.419, 7.656, 7.968}

// shardInputs is the per-class rates of each search: Canada-4's scaled
// class by class by U[0.8, 1.2].
func shardInputs(r *run) [][]float64 {
	n := 128
	if r.quick {
		n = 3
	}
	g := r.rng(3)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, len(canada4Rates))
		for c, base := range canada4Rates {
			out[i][c] = base * (0.8 + 0.4*g.Float64())
		}
	}
	return out
}

func shardCoreOptions(workers int) core.Options {
	return core.Options{Evaluator: core.EvalExactMVA, ExactEngine: true,
		Search: core.ExhaustiveSearch, MaxWindow: shardBox, Workers: workers}
}

// shardRun is one op: a fresh spool, a fresh three-host fleet, two worker
// slots, six slabs.
func shardRun(dir string, n *netmodel.Network, worker transport.WorkerFunc, onEvent func(shard.Event)) (*shard.Result, error) {
	fleet, err := transport.NewFake([]string{"sim0", "sim1", "sim2"}, worker, "")
	if err != nil {
		return nil, err
	}
	res, err := shard.Run(n, shardCoreOptions(1), shard.Options{
		Dir: dir, WorkerArgv: []string{"in-process"}, Transport: fleet,
		Procs: searchWorkers, Slabs: 6, Axis: -1, MaxRetries: -1, OnEvent: onEvent,
	})
	if err == nil && len(res.Degraded) > 0 {
		err = fmt.Errorf("%d slab(s) lost: %+v", len(res.Degraded), res.Degraded)
	}
	return res, err
}

func runShard(r *run) error {
	inputs := shardInputs(r)
	var nets []*netmodel.Network
	// Set-up builds the networks and runs one untimed sharded search.
	setups, err := timeSetups(r, func(bool) error {
		built := make([]*netmodel.Network, len(inputs))
		for i, rates := range inputs {
			built[i] = topo.Canada4Class(rates[0], rates[1], rates[2], rates[3])
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", time.Now().UnixNano()))
		if _, err := shardRun(dir, built[0], shard.WorkerEnvMain, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		nets = built
		return nil
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return traceShard(r, nets)
	}
	e := endToEnd{setups: setups}
	results, lat, window, u := sweepShard(r, nets, r.seconds, r.timedOps(), "op")
	e.latency, e.window, e.cpu, e.rss = lat, window, u.cpu, u.maxRSS
	for i, res := range results {
		if res == nil {
			continue
		}
		e.addResult(i, res.Metrics.Power)
		if i%4 == 0 {
			checkShard(r, i, nets[i%len(nets)], res)
		}
	}
	e.report(r)
	return nil
}

// sweepShard runs sharded searches over the inputs in order for
// timedLoop; a failed op leaves a nil entry.
func sweepShard(r *run, nets []*netmodel.Network, d time.Duration, minOps int, tag string) ([]*shard.Result, []time.Duration, time.Duration, usage) {
	var out []*shard.Result
	lat, window, u := timedLoop(r, d, minOps, func(i int) error {
		res, err := shardRun(filepath.Join(r.dir, fmt.Sprintf("%s%d", tag, i)), nets[i%len(nets)], shard.WorkerEnvMain, nil)
		if err != nil {
			res = nil
		}
		out = append(out, res)
		return err
	})
	return out, lat, window, u
}

// checkShard compares a merge with the single-process exhaustive search of
// the same network and box, and returns that search's wall time.
func checkShard(r *run, i int, n *netmodel.Network, res *shard.Result) time.Duration {
	t0 := time.Now()
	single, err := core.Dimension(n, shardCoreOptions(searchWorkers))
	took := time.Since(t0)
	if err != nil {
		r.mismatch("shard op %d: single-process search: %v", i, err)
		return took
	}
	if !res.Windows.Equal(single.Windows) ||
		math.Float64bits(res.BestValue) != math.Float64bits(single.Search.BestValue) ||
		res.Evaluations != single.Search.Evaluations {
		r.mismatch("shard op %d: merged %v value %v evaluations %d, single process %v value %v evaluations %d",
			i, res.Windows, res.BestValue, res.Evaluations, single.Windows, single.Search.BestValue, single.Search.Evaluations)
	}
	return took
}

// shardTrace is one traced sharded search.
type shardTrace struct {
	res      *shard.Result
	wall     time.Duration
	plan     time.Duration // Run start to the plan event: manifest durable
	merge    time.Duration // last slab done to the merged event
	workers  []time.Duration
	idle     time.Duration // Run wall not covered by any worker
	launches int
}

// traceShardOp runs shard.Run with every in-process worker wrapped in a
// span and the coordinator's events stamped.
func traceShardOp(tr *tracer, op int, dir string, n *netmodel.Network) (shardTrace, error) {
	var t shardTrace
	root := tr.begin()
	var mu sync.Mutex
	var workers []interval
	var events []shard.Event
	worker := func(ctx context.Context, env []string) int {
		s := tr.begin()
		code := shard.WorkerEnvMain(ctx, env)
		iv := tr.end(s, "shard.WorkerEnvMain", op, root.id)
		mu.Lock()
		workers = append(workers, iv)
		mu.Unlock()
		return code
	}
	onEvent := func(ev shard.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	res, err := shardRun(dir, n, worker, onEvent)
	run := tr.end(root, "shard.Run", op, 0)
	if err != nil {
		return t, err
	}
	t.res, t.wall = res, run.dur()
	var planAt, lastDone, mergedAt time.Time
	for _, ev := range events {
		switch ev.Type {
		case shard.EventPlan:
			planAt = ev.At
		case shard.EventLaunched:
			t.launches++
		case shard.EventDone:
			if ev.At.After(lastDone) {
				lastDone = ev.At
			}
		case shard.EventMerged:
			mergedAt = ev.At
		}
	}
	t.plan = planAt.Sub(run.start)
	t.merge = mergedAt.Sub(lastDone)
	tr.record(0, "shard.plan", op, root.id, interval{run.start, planAt})
	tr.record(0, "shard.merge", op, root.id, interval{lastDone, mergedAt})
	for _, iv := range workers {
		t.workers = append(t.workers, iv.dur())
	}
	t.idle = run.dur() - unionLength(workers)
	return t, nil
}

// latticeCost builds a convolution lattice over the whole search box and
// times exact evaluations read from it with MeansAt, the read core's exact
// engine makes per candidate.
func latticeCost(n *netmodel.Network, g *rand.Rand) (build time.Duration, evals []float64, err error) {
	nCls := len(n.Classes)
	ones, box := numeric.NewIntVector(nCls), numeric.NewIntVector(nCls)
	for i := range ones {
		ones[i], box[i] = 1, shardBox
	}
	model, _, err := n.ClosedModel(ones)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	eng, err := convolution.NewEngine(model, ones, convolution.EngineOptions{Workers: 1})
	if err == nil {
		err = eng.EnsureBox(box)
	}
	build = time.Since(t0)
	if err != nil {
		return build, nil, err
	}
	h := numeric.NewIntVector(nCls)
	for k := 0; k < 64; k++ {
		for i := range h {
			h[i] = 1 + g.IntN(shardBox)
		}
		t := time.Now()
		if _, err := eng.MeansAt(h); err != nil {
			return build, nil, err
		}
		evals = append(evals, float64(time.Since(t).Nanoseconds()))
	}
	return build, evals, nil
}

// traceShard runs the traced searches for three quarters of the run's
// duration and untraced ones, the baseline of the tracing overhead, for
// the last quarter.
func traceShard(r *run, nets []*netmodel.Network) error {
	var ops []shardTrace
	_, traced, _ := timedLoop(r, r.seconds*3/4, r.exactOps(), func(i int) error {
		t, err := traceShardOp(r.tr, i, filepath.Join(r.dir, fmt.Sprintf("traced%d", i)), nets[i%len(nets)])
		ops = append(ops, t)
		return err
	})
	ref, _, untraced, _ := sweepShard(r, nets, r.seconds/4, 0, "untraced")

	// Every 4th traced op: the output check against the single-process
	// search (whose wall time is the fleet overhead's base), and the cost of
	// one convolution lattice over the same box.
	g := r.rng(4)
	var ratios, builds, evalNS []float64
	for i := 0; i < len(ops); i += 4 {
		if ops[i].res == nil {
			continue
		}
		n := nets[i%len(nets)]
		single := checkShard(r, i, n, ops[i].res)
		ratios = append(ratios, ops[i].wall.Seconds()/single.Seconds())
		build, evals, err := latticeCost(n, g)
		if err != nil {
			return fmt.Errorf("convolution lattice: %w", err)
		}
		builds = append(builds, ms(build))
		evalNS = append(evalNS, evals...)
	}

	var plans, merges, idles, imbalance, workers []float64
	var launches, retries, evaluations int
	for i, t := range ops {
		if t.res == nil {
			continue
		}
		plans = append(plans, ms(t.plan))
		merges = append(merges, ms(t.merge))
		idles = append(idles, ms(t.idle))
		ws := msAll(t.workers)
		workers = append(workers, ws...)
		if len(ws) > 0 {
			sum, top := 0.0, 0.0
			for _, w := range ws {
				sum += w
				top = math.Max(top, w)
			}
			imbalance = append(imbalance, top/(sum/float64(len(ws))))
		}
		if i < r.exactOps() {
			launches += t.launches
			retries += t.res.Retries
			evaluations += t.res.Evaluations
		}
	}
	prefix := fmt.Sprintf("first %d ops", min(r.exactOps(), len(ops)))
	r.emit("shard.plan_ms", median(plans), "ms", "median per op")
	v, n, err := percentile(workers, 0.5)
	r.emitPercentile("shard.worker_ms_p50", v, "ms", n, err)
	top := 0.0
	for _, w := range workers {
		top = math.Max(top, w)
	}
	r.emit("shard.worker_ms_max", top, "ms", fmt.Sprintf("over %d workers", len(workers)))
	r.emit("shard.slab_imbalance", median(imbalance), "ratio", "max/mean worker time, median per op")
	r.emit("shard.coordinator_idle_ms", median(idles), "ms", "Run wall minus the union of worker spans, median per op")
	r.emit("shard.merge_ms", median(merges), "ms", "median per op")
	r.emit("shard.launches", float64(launches), "count", prefix)
	r.emit("shard.retries", float64(retries), "count", prefix)
	r.emit("shard.evaluations", float64(evaluations), "count", prefix)
	r.emit("shard.fleet_overhead_ratio", median(ratios), "ratio",
		fmt.Sprintf("sharded wall / single-process wall, median of %d pairs", len(ratios)))
	r.emit("convolution.lattice_build_ms", median(builds), "ms", fmt.Sprintf("NewEngine + EnsureBox to %d^4, median", shardBox))
	r.emit("convolution.eval_ns", median(evalNS), "ns", fmt.Sprintf("MeansAt inside the box, median of %d", len(evalNS)))
	reportOverhead(r, len(ops), traced, len(ref), untraced)
	return nil
}
