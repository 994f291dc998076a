package main

// dimension_sweep is the windim path: one caller, closed loop, dimensioning
// generated networks with the thesis's pattern search over σ-AMVA. Nearly
// all of its time is candidate evaluation and speculative search; it does
// no disk I/O, no HTTP and no convolution.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mva"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// dimInput is one dimensioning: a generated network — generator, size and
// generator seed — with every class's arrival rate scaled by its own factor.
type dimInput struct {
	Kind  string    `json:"kind"` // mesh | scalefree | clos
	Nodes int       `json:"nodes"`
	Seed  uint64    `json:"seed"`
	Scale []float64 `json:"scale"`
}

// meshSizes is the node counts the sweep rotates its meshes through.
var meshSizes = []int{64, 80, 96, 112, 128}

// dimensionInputs is the sweep: the same 240 topologies in the same order
// at every seed — the kind rotation, sizes and generator seeds are fixed —
// re-dimensioned under traffic the seed drifts by U[0.9, 1.1] per class.
// Randomly drawn topologies would make a run's total work depend on which
// graphs the seed happened to draw; drift keeps the work comparable across
// seeds while each seed still poses different problems.
func dimensionInputs(r *run) []dimInput {
	n := 240
	if r.quick {
		n = 6
	}
	g := r.rng(1)
	out := make([]dimInput, n)
	for i := range out {
		in := dimInput{Seed: uint64(i + 1), Scale: make([]float64, 48)}
		switch i % 3 {
		case 0:
			in.Kind, in.Nodes = "mesh", meshSizes[(i/3)%len(meshSizes)]
		case 1:
			in.Kind, in.Nodes = "scalefree", 80
		default:
			in.Kind, in.Nodes = "clos", 12
		}
		for c := range in.Scale {
			in.Scale[c] = 0.9 + 0.2*g.Float64()
		}
		out[i] = in
	}
	return out
}

func (in dimInput) network() (*netmodel.Network, error) {
	cfg := topo.GenConfig{Seed: in.Seed}
	var n *netmodel.Network
	var err error
	switch in.Kind {
	case "mesh":
		n, err = topo.Mesh(in.Nodes, 48, 48, cfg)
	case "scalefree":
		n, err = topo.ScaleFree(in.Nodes, 2, 48, cfg)
	default:
		n, err = topo.Clos(in.Nodes, 6, 48, cfg)
	}
	if err != nil {
		return nil, err
	}
	if len(n.Classes) != len(in.Scale) {
		return nil, fmt.Errorf("%d classes, %d rate factors", len(n.Classes), len(in.Scale))
	}
	for c := range n.Classes {
		n.Classes[c].Rate *= in.Scale[c]
	}
	return n, nil
}

func dimOptions(workers int) core.Options { return core.Options{Workers: workers} }

// dimResult is what the output checks compare: windows, the exact bits of
// the power, and the evaluation count.
type dimResult struct {
	ok          bool
	windows     numeric.IntVector
	power       float64
	evaluations int
}

func fromCore(res *core.Result) dimResult {
	return dimResult{ok: true, windows: res.Windows, power: res.Metrics.Power, evaluations: res.Search.Evaluations}
}

func (a dimResult) same(b dimResult) bool {
	return a.ok && b.ok && a.windows.Equal(b.windows) &&
		math.Float64bits(a.power) == math.Float64bits(b.power) && a.evaluations == b.evaluations
}

func (a dimResult) String() string {
	return fmt.Sprintf("windows %v power %v evaluations %d", a.windows, a.power, a.evaluations)
}

func runDimension(r *run) error {
	inputs := dimensionInputs(r)
	var nets []*netmodel.Network
	// Set-up builds every network from its generator and dimensions the
	// first one untimed, so lazy initialisation is paid here.
	setups, err := timeSetups(r, func(bool) error {
		built := make([]*netmodel.Network, len(inputs))
		for i, in := range inputs {
			n, err := in.network()
			if err != nil {
				return fmt.Errorf("input %d %+v: %w", i, in, err)
			}
			if err := n.Validate(); err != nil {
				return fmt.Errorf("input %d %+v: %w", i, in, err)
			}
			built[i] = n
		}
		if _, err := core.Dimension(built[0], dimOptions(searchWorkers)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		nets = built
		return nil
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		return traceDimension(r, nets)
	}

	e := endToEnd{setups: setups}
	results, lat, window, u := sweepDimension(r, nets, r.seconds, r.timedOps())
	e.latency, e.window, e.cpu, e.rss = lat, window, u.cpu, u.maxRSS
	for i, res := range results {
		if res.ok {
			e.addResult(i, res.power)
		}
	}
	// Serial equals parallel: every 8th input again at one worker.
	for i := 0; i < len(results); i += 8 {
		if !results[i].ok {
			continue
		}
		serial, err := core.Dimension(nets[i%len(nets)], dimOptions(1))
		if err != nil {
			r.mismatch("dimension op %d serial re-run: %v", i, err)
			continue
		}
		if s := fromCore(serial); !s.same(results[i]) {
			r.mismatch("dimension op %d: Workers=1 gives %v, Workers=2 gave %v", i, s, results[i])
		}
	}
	e.report(r)
	return nil
}

// sweepDimension runs core.Dimension over the inputs in order, wrapping
// around, for timedLoop; a failed op leaves a zero result.
func sweepDimension(r *run, nets []*netmodel.Network, d time.Duration, minOps int) ([]dimResult, []time.Duration, time.Duration, usage) {
	var results []dimResult
	lat, window, u := timedLoop(r, d, minOps, func(i int) error {
		res, err := core.Dimension(nets[i%len(nets)], dimOptions(searchWorkers))
		if err != nil {
			results = append(results, dimResult{})
			return err
		}
		results = append(results, fromCore(res))
		return nil
	})
	return results, lat, window, u
}

// dimTrace is one traced dimensioning, taken apart by layer.
type dimTrace struct {
	res       dimResult
	build     time.Duration
	evals     []time.Duration // every ObjectiveValue call, speculative ones included
	commits   []time.Duration
	self      time.Duration // Search wall minus the union of its objective and commit spans
	cold      time.Duration
	coldIters int
	rescued   int64
	cacheHits int
	bases     int
}

// traceDimensionOp reassembles core.Dimension from the layers it is built
// on — NewEngine, then pattern.Search with Engine.ObjectiveValue as the
// objective and Engine.Commit on every accepted base point — timing each
// call. Its result must equal core.Dimension's bit for bit.
func traceDimensionOp(tr *tracer, op int, n *netmodel.Network) (dimTrace, error) {
	var t dimTrace
	root := tr.begin()
	b := tr.begin()
	eng, err := core.NewEngine(n, dimOptions(searchWorkers))
	t.build = tr.end(b, "core.NewEngine", op, root.id).dur()
	if err != nil {
		return t, err
	}
	s := tr.begin()
	var mu sync.Mutex
	var children []interval
	objective := func(x numeric.IntVector) (float64, error) {
		sp := tr.begin()
		v, err := eng.ObjectiveValue(x, core.ObjNetworkPower)
		iv := tr.end(sp, "core.Engine.ObjectiveValue", op, s.id)
		mu.Lock()
		t.evals = append(t.evals, iv.dur())
		children = append(children, iv)
		mu.Unlock()
		if errors.Is(err, mva.ErrNotConverged) {
			return math.Inf(1), nil // infeasible, exactly as core.Dimension scores it
		}
		return v, err
	}
	nCls := len(n.Classes)
	lo, hi := numeric.NewIntVector(nCls), numeric.NewIntVector(nCls)
	for i := range lo {
		lo[i], hi[i] = 1, 64
	}
	popts := pattern.Options{Lo: lo, Hi: hi, Workers: searchWorkers,
		OnCommit: func(x numeric.IntVector, _ float64) {
			c := tr.begin()
			eng.Commit(x)
			iv := tr.end(c, "core.Engine.Commit", op, s.id)
			mu.Lock()
			t.commits = append(t.commits, iv.dur())
			children = append(children, iv)
			mu.Unlock()
		}}
	sres, err := pattern.Search(objective, n.HopVector(), popts)
	sIv := tr.end(s, "pattern.Search", op, root.id)
	if err != nil {
		return t, err
	}
	if sres.Best == nil || math.IsInf(sres.BestValue, 1) {
		return t, errors.New("no feasible window setting")
	}
	t.self = selfTime(sIv, children)
	m, err := eng.Evaluate(sres.Best)
	tr.end(root, "op", op, 0)
	if err != nil {
		return t, err
	}
	t.res = dimResult{ok: true, windows: sres.Best, power: m.Power, evaluations: sres.Evaluations}
	t.rescued = eng.FallbackCounts().Rescued()
	t.cacheHits, t.bases = sres.CacheHits, len(sres.BasePoints)

	// The cold sweep cost at the optimum: one σ-AMVA solve from scratch.
	model, _, err := n.ClosedModel(sres.Best)
	if err != nil {
		return t, err
	}
	c := tr.begin()
	sol, err := mva.Approximate(model, mva.Options{Method: mva.SigmaHeuristic})
	t.cold = tr.end(c, "mva.Approximate", op, root.id).dur()
	if err != nil {
		return t, err
	}
	t.coldIters = sol.Iterations
	return t, nil
}

// traceDimension runs the traced loop for half the run's duration, then
// core.Dimension over the same inputs until it has covered them; that
// untraced pass is both the reference every traced result must equal and
// the baseline of the tracing overhead.
func traceDimension(r *run, nets []*netmodel.Network) error {
	var ops []dimTrace
	_, traced, _ := timedLoop(r, r.seconds/2, r.exactOps(), func(i int) error {
		t, err := traceDimensionOp(r.tr, i, nets[i%len(nets)])
		if err != nil {
			t.res = dimResult{}
		}
		ops = append(ops, t)
		return err
	})
	ref, _, untraced, _ := sweepDimension(r, nets, 0, len(ops))
	for i, t := range ops {
		if !t.res.same(ref[i]) {
			r.mismatch("dimension op %d: traced layers give %v, core.Dimension gives %v", i, t.res, ref[i])
		}
	}

	var builds, selfs, colds, evalsUS, commitsUS []float64
	var evalCalls, evaluations, cacheHits, commits, coldIters int
	var rescued int64
	var busy time.Duration
	for i, t := range ops {
		builds = append(builds, ms(t.build))
		selfs = append(selfs, ms(t.self))
		colds = append(colds, us(t.cold))
		for _, d := range t.evals {
			evalsUS = append(evalsUS, us(d))
		}
		for _, d := range t.commits {
			commitsUS = append(commitsUS, us(d))
		}
		if i < r.exactOps() {
			evalCalls += len(t.evals)
			evaluations += t.res.evaluations
			cacheHits += t.cacheHits
			commits += t.bases
			coldIters += t.coldIters
			rescued += t.rescued
			for _, d := range t.evals {
				busy += d
			}
		}
	}
	prefix := fmt.Sprintf("first %d ops", min(r.exactOps(), len(ops)))
	r.emit("core.engine_build_ms", median(builds), "ms", "median per op")
	r.emit("core.eval_calls", float64(evalCalls), "count", prefix+", speculative probes included")
	v, n, err := percentile(evalsUS, 0.5)
	r.emitPercentile("core.eval_us_p50", v, "us", n, err)
	v, n, err = percentile(evalsUS, 0.9)
	r.emitPercentile("core.eval_us_p90", v, "us", n, err)
	r.emit("core.eval_busy_s", busy.Seconds(), "s", prefix)
	v, n, err = percentile(commitsUS, 0.5)
	r.emitPercentile("core.commit_us_p50", v, "us", n, err)
	r.emit("core.fallback_rescued", float64(rescued), "count", prefix)
	r.emit("mva.cold_solve_us", median(colds), "us", "median per optimum")
	r.emit("mva.cold_iterations", float64(coldIters), "count", prefix)
	r.emit("pattern.evaluations", float64(evaluations), "count", prefix)
	r.emit("pattern.cache_hits", float64(cacheHits), "count", prefix)
	r.emit("pattern.commits", float64(commits), "count", prefix)
	r.emit("pattern.speculation_useful_ratio", float64(evaluations)/float64(max(evalCalls, 1)), "ratio",
		fmt.Sprintf("%d evaluations / %d eval calls", evaluations, evalCalls))
	r.emit("pattern.self_ms", median(selfs), "ms", "median per op")
	reportOverhead(r, len(ops), traced, len(ref), untraced)
	return nil
}

// reportOverhead prints the traced and untraced op rates of one run and the
// share of throughput tracing costs.
func reportOverhead(r *run, tracedOps int, traced time.Duration, untracedOps int, untraced time.Duration) {
	t := float64(tracedOps) / traced.Seconds()
	u := float64(untracedOps) / untraced.Seconds()
	r.emit("trace.ops_per_s", t, "1/s", fmt.Sprintf("%d traced ops", tracedOps))
	r.emit("trace.untraced_ops_per_s", u, "1/s", fmt.Sprintf("%d untraced ops", untracedOps))
	r.emit("trace.overhead_frac", 1-t/u, "ratio", "1 - traced/untraced ops_per_s")
}
