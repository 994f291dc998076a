package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchResult is one entry of the -json output: the machine-readable perf
// record future PRs diff against BENCH_baseline.json.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Evaluations counts the objective evaluations one run of the
	// benchmarked operation performs (0 where not applicable).
	Evaluations int `json:"evaluations"`
}

type benchFile struct {
	Go string `json:"go"`
	// CPU and Gomaxprocs record the machine the baseline was measured on;
	// benchdiff warns (without failing) when they differ from the current
	// run, since wall-clock bands across different hardware mean little.
	CPU        string        `json:"cpu,omitempty"`
	Gomaxprocs int           `json:"gomaxprocs,omitempty"`
	Workers    int           `json:"workers"`
	Results    []BenchResult `json:"results"`
}

// cpuModel names the measuring CPU: the first "model name" of
// /proc/cpuinfo where available, the architecture otherwise.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(rest, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}

// robustBenchScenarios is the fixed three-scenario set behind the
// DimensionRobust benchmark entry: nominal, a degraded shared trunk, and
// a surged short class.
func robustBenchScenarios() []core.Scenario {
	capScale := []float64{1, 1, 1, 1, 1, 1, 1}
	capScale[topo.ChWT] = 0.6
	return []core.Scenario{
		{Name: "nominal", Weight: 0.6},
		{Name: "trunk-degraded", CapacityScale: capScale, Weight: 0.2},
		{Name: "class4-surge", RateScale: []float64{1, 1, 1, 2}, Weight: 0.2},
	}
}

// runJSONBench times the representative WINDIM workloads and writes the
// results as JSON to path ("-" for stdout).
func runJSONBench(path string, opts core.Options) error {
	canada2 := topo.Canada2Class(20, 20)
	canada4 := topo.Canada4Class(9.957, 4.419, 7.656, 7.968)
	cold := opts
	cold.ColdStart = true
	serial := opts
	serial.Workers = 1
	parallel := opts
	if parallel.Workers < 2 {
		parallel.Workers = 4
	}
	// The exact-oracle pair: the same exhaustive box over Canada4Class
	// solved exactly per candidate (the baseline the thesis-era code paid)
	// versus served from one shared convolution lattice — the tentpole's
	// headline speedup.
	exhaustiveExact := serial
	exhaustiveExact.Evaluator = core.EvalExactMVA
	exhaustiveExact.Search = core.ExhaustiveSearch
	exhaustiveExact.MaxWindow = 7
	exhaustiveExactEngine := exhaustiveExact
	exhaustiveExactEngine.ExactEngine = true

	// evals runs a dimensioning once, purely to report the objective
	// evaluation count next to its timing.
	evals := func(res *core.Result, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		return res.Search.Evaluations, nil
	}
	sumTable47 := func() (int, error) {
		rows, err := experiments.Table47(opts)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, r := range rows {
			n += r.Evaluations
		}
		return n, nil
	}
	sumTable48 := func() (int, error) {
		rows, err := experiments.Table48(opts)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, r := range rows {
			n += r.Evaluations
		}
		return n, nil
	}

	suite := []struct {
		name  string
		evals func() (int, error)
		body  func() error
	}{
		{"Table47", sumTable47, func() error {
			_, err := experiments.Table47(opts)
			return err
		}},
		{"Table48", sumTable48, func() error {
			_, err := experiments.Table48(opts)
			return err
		}},
		{"EvaluateEngine/canada4", nil, nil}, // filled below: needs shared engine state
		{"DimensionCold/canada2", func() (int, error) {
			return evals(core.Dimension(canada2, cold))
		}, func() error {
			_, err := core.Dimension(canada2, cold)
			return err
		}},
		{"DimensionWarm/canada2", func() (int, error) {
			return evals(core.Dimension(canada2, serial))
		}, func() error {
			_, err := core.Dimension(canada2, serial)
			return err
		}},
		{"DimensionParallel/canada4", func() (int, error) {
			return evals(core.Dimension(canada4, parallel))
		}, func() error {
			_, err := core.Dimension(canada4, parallel)
			return err
		}},
		{"robust_dimension", func() (int, error) {
			res, err := core.DimensionRobust(canada4, robustBenchScenarios(), core.RobustMinimax, serial)
			if err != nil {
				return 0, err
			}
			return res.Search.Evaluations, nil
		}, func() error {
			_, err := core.DimensionRobust(canada4, robustBenchScenarios(), core.RobustMinimax, serial)
			return err
		}},
		{"exact_engine", nil, nil}, // filled below: evals inside a prebuilt lattice
		{"exhaustive_exact", func() (int, error) {
			return evals(core.Dimension(canada4, exhaustiveExactEngine))
		}, func() error {
			_, err := core.Dimension(canada4, exhaustiveExactEngine)
			return err
		}},
		{"exhaustive_exact_solve", func() (int, error) {
			return evals(core.Dimension(canada4, exhaustiveExact))
		}, func() error {
			_, err := core.Dimension(canada4, exhaustiveExact)
			return err
		}},
	}
	// The engine micro-benchmark reuses one engine across iterations —
	// that is the steady state it exists to measure.
	eng, err := core.NewEngine(canada4, opts)
	if err != nil {
		return err
	}
	w := numeric.IntVector{4, 4, 3, 2}
	suite[2].body = func() error {
		_, err := eng.ObjectiveValue(w, opts.Objective)
		return err
	}
	// exact_engine measures a candidate evaluation INSIDE an already-built
	// convolution lattice — the steady state of an engine-backed search,
	// which must cost slice reads, not a recursion over the box.
	exactSteady := serial
	exactSteady.Evaluator = core.EvalExactMVA
	exactSteady.ExactEngine = true
	exactEng, err := core.NewEngine(canada2, exactSteady)
	if err != nil {
		return err
	}
	if _, err := exactEng.ObjectiveValue(numeric.IntVector{6, 6}, exactSteady.Objective); err != nil {
		return err // builds the (6,6) box once; the benchmark stays inside it
	}
	wInside := numeric.IntVector{4, 5}
	suite[7].body = func() error {
		_, err := exactEng.ObjectiveValue(wInside, exactSteady.Objective)
		return err
	}

	// amva_sparse: one warm engine candidate evaluation (the dimensioning
	// inner loop) on networks of increasing station count but fixed route
	// lengths. The solver's state and the objective's power read both walk
	// the compiled visit lists, so the ns/op column grows with total route
	// length, not station count — mesh64 vs mesh256 quadruples the
	// stations at an identical chain count.
	sparseNets := []struct {
		name string
		n    *netmodel.Network
		err  error
	}{
		{name: "amva_sparse/canada4", n: canada4},
		{}, {}, {},
	}
	sparseNets[1].n, sparseNets[1].err = topo.Clos(12, 6, 48, topo.GenConfig{Seed: 1})
	sparseNets[1].name = "amva_sparse/clos12x6"
	sparseNets[2].n, sparseNets[2].err = topo.Mesh(64, 64, 48, topo.GenConfig{Seed: 1})
	sparseNets[2].name = "amva_sparse/mesh64"
	sparseNets[3].n, sparseNets[3].err = topo.Mesh(256, 256, 48, topo.GenConfig{Seed: 1})
	sparseNets[3].name = "amva_sparse/mesh256"
	for _, sn := range sparseNets {
		if sn.err != nil {
			return fmt.Errorf("bench %s: %w", sn.name, sn.err)
		}
		sparseEng, err := core.NewEngine(sn.n, serial)
		if err != nil {
			return fmt.Errorf("bench %s: %w", sn.name, err)
		}
		hw := sn.n.HopVector()
		if _, err := sparseEng.ObjectiveValue(hw, serial.Objective); err != nil {
			return fmt.Errorf("bench %s: %w", sn.name, err)
		}
		sparseEng.Commit(hw) // measure the warm steady state of a search
		suite = append(suite, struct {
			name  string
			evals func() (int, error)
			body  func() error
		}{sn.name, nil, func() error {
			_, err := sparseEng.ObjectiveValue(hw, serial.Objective)
			return err
		}})
	}

	// sim_event: one full simulator replication on the Fig. 4.6 Canada-4
	// workload through a reused Runner — the zero-alloc steady state
	// RunReplications lives in. Evaluations records the executed event
	// count, so benchdiff can derive ns/event and catch event-count drift
	// (a scheduler or model change) separately from wall-clock noise.
	simCfg := sim.Config{
		Windows:  numeric.IntVector{4, 4, 3, 2},
		Duration: 200,
		Warmup:   20,
	}
	simRunner, err := sim.NewRunner(canada4, simCfg)
	if err != nil {
		return err
	}
	simEvents := 0
	if res, err := simRunner.Run(1); err != nil {
		return err
	} else {
		simEvents = int(res.Events)
	}
	suite = append(suite, struct {
		name  string
		evals func() (int, error)
		body  func() error
	}{"sim_event/canada4", func() (int, error) { return simEvents, nil }, func() error {
		_, err := simRunner.Run(1)
		return err
	}})

	// sim_replications: the end-to-end batch path — replications with a
	// fault schedule (outage, degradation, surge) through RunReplications'
	// pooled per-worker runners. Evaluations is the total event count.
	repCfg := sim.Config{
		Windows:  numeric.IntVector{4, 4},
		Duration: 300,
		Warmup:   30,
		Faults: &sim.FaultSpec{
			Outages:      []sim.Outage{{Channel: 1, Start: 60, End: 80}},
			Degradations: []sim.Degradation{{Channel: 0, Start: 100, End: 160, Factor: 0.5}},
			Surges:       []sim.Surge{{Class: 1, Start: 120, End: 200, Factor: 2.5}},
		},
	}
	const simReps = 4
	repEvents := func() (int, error) {
		batch, err := sim.RunReplications(context.Background(), canada2, repCfg, simReps, 1)
		if err != nil {
			return 0, err
		}
		n := int64(0)
		for i := range batch.Reps {
			if r := batch.Reps[i].Result; r != nil {
				n += r.Events
			}
		}
		return int(n), nil
	}
	suite = append(suite, struct {
		name  string
		evals func() (int, error)
		body  func() error
	}{"sim_replications/canada2", repEvents, func() error {
		_, err := sim.RunReplications(context.Background(), canada2, repCfg, simReps, 1)
		return err
	}})

	out := benchFile{
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Workers:    parallel.Workers,
	}
	for _, s := range suite {
		var benchErr error
		body := s.body
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := body(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return fmt.Errorf("bench %s: %w", s.name, benchErr)
		}
		rec := BenchResult{
			Name:        s.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if s.evals != nil {
			n, err := s.evals()
			if err != nil {
				return fmt.Errorf("bench %s evaluations: %w", s.name, err)
			}
			rec.Evaluations = n
		}
		out.Results = append(out.Results, rec)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d allocs/op %6d evals\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.Evaluations)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
