// Command bench is the repository benchmark. Each run drives one workload
// through the public functions of the packages under internal/, for a fixed
// wall-clock time, on inputs generated from a seed, and checks the outputs:
//
//	bash bench/run.sh --workload dimension_sweep --seed 1 --seconds 20 --trace 0
//
// It prints every metric as "name value unit", then, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics of BENCHMARK.json; traced runs (--trace 1)
// record spans around each layer call, write them as NDJSON, and report the
// per-layer metrics. BENCHMARK.json, read from the working directory, is
// the single list of workloads and metrics; README.md explains each.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workload is one entry of the benchmark.
type workload struct {
	run func(*run) error
	// rate is the offered load of an open loop in ops per second, recorded
	// in the machine stamp; 0 for the closed loops.
	rate float64
}

var workloads = map[string]workload{
	"dimension_sweep":     {run: runDimension},
	"windimd_open_loop":   {run: runWindimd, rate: offeredRate},
	"shard_fleet":         {run: runShard},
	"netsim_replications": {run: runNetsim},
}

// runLimit bounds a whole run, set-up and output checks included.
const runLimit = 170 * time.Second

// quickSeconds is how long a -quick run, or the quick pass of a traced
// run, measures.
const quickSeconds = 400 * time.Millisecond

// searchWorkers is the goroutine budget of every workload: search workers,
// simulator workers, shard worker processes and HTTP connections alike.
const searchWorkers = 2

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// run is one invocation of one workload: its settings, and what it
// measured and found.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	quick    bool
	dir      string  // scratch directory of this run, removed at exit
	tr       *tracer // nil unless traced
	rate     float64

	attempted, failed int
	metrics           []metric
	mismatches        []string // output checks that failed
	thinSamples       []string // percentiles reported over too few samples
}

func (r *run) emit(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

// emitPercentile reports a percentile with its sample count next to it.
func (r *run) emitPercentile(name string, v float64, unit string, n int, err error) {
	note := fmt.Sprintf("n=%d", n)
	if err != nil {
		note += "; " + err.Error()
		r.thinSamples = append(r.thinSamples, name+": "+err.Error())
	}
	r.emit(name, v, unit, note)
}

func (r *run) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// rng returns the seeded stream for one purpose; the same seed and stream
// always give the same inputs.
func (r *run) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the timed loop measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "run every code path on small inputs in about a second")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch spools and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", args...)
		return 1
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail("%v", err)
	}
	wl, ok := workloads[*name]
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == *name
	}
	if !ok || !listed {
		return fail("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail("need --seconds >= 1 and --trace 0 or 1")
	}
	r := &run{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		quick: *quick, rate: wl.rate}
	if r.quick {
		r.seconds = quickSeconds
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	r.dir = filepath.Join(*workdir, fmt.Sprintf("run-%s-seed%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(r.dir)

	stamp := machineStamp(r)
	fmt.Fprintf(stdout, "# machine go=%s cpu=%q nproc=%d gomaxprocs=%d seed=%d workload=%s rate_per_s=%g trace=%d\n",
		stamp["go"], stamp["cpu"], stamp["nproc"], stamp["gomaxprocs"], r.seed, r.workload, r.rate, *trace)
	if runtime.GOMAXPROCS(0) < searchWorkers {
		fmt.Fprintf(stderr, "bench: warning: GOMAXPROCS=%d is below the %d workers every workload uses; parallel metrics measure contention\n",
			runtime.GOMAXPROCS(0), searchWorkers)
	}

	// A run that hangs must still end, and say where it hung.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "bench: %s still running after %v; goroutines:\n", r.workload, runLimit)
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := wl.run(r); err != nil {
		return fail("%s: %v", r.workload, err)
	}
	want := spec.EndToEnd
	if r.tr != nil {
		want = spec.PerLayer
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.ndjson", r.workload, r.seed))
		if err := r.tr.write(path, stamp); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "# spans %s (%d spans)\n", path, len(r.tr.spans))
		for _, w := range spec.Workloads {
			if w.Name != r.workload {
				if err := probeLayers(r, w.Name); err != nil {
					return fail("%s: quick pass of %s: %v", r.workload, w.Name, err)
				}
			}
		}
	}
	out, err := selectMetrics(r, want)
	if err != nil {
		return fail("%s: %v", r.workload, err)
	}
	for _, m := range out {
		line := fmt.Sprintf("%-34s %s %s", m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	for _, msg := range r.mismatches {
		fmt.Fprintf(stdout, "# MISMATCH %s\n", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.mismatches) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range out {
		result.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(stdout, string(line))
	switch {
	case len(r.mismatches) > 0:
		return fail("%s: %d output check(s) failed", r.workload, len(r.mismatches))
	case len(r.thinSamples) > 0 && !r.quick:
		return fail("%s: percentiles over too few samples: %s", r.workload, strings.Join(r.thinSamples, "; "))
	}
	return 0
}

// probeLayers measures the layers that r's workload does not drive with a
// quick traced pass of another workload, in the same process, so that a
// traced run reports a measured value for every per-layer metric. The
// pass's metrics that r has not measured itself join r's, noted as coming
// from the pass; its ops and output checks count towards r's.
func probeLayers(r *run, name string) error {
	p := &run{workload: name, seed: r.seed, seconds: quickSeconds, quick: true,
		tr: newTracer(), rate: workloads[name].rate, dir: filepath.Join(r.dir, "probe-"+name)}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if err := workloads[name].run(p); err != nil {
		return err
	}
	r.attempted += p.attempted
	r.failed += p.failed
	for _, msg := range p.mismatches {
		r.mismatch("quick pass of %s: %s", name, msg)
	}
	have := map[string]bool{}
	for _, m := range r.metrics {
		have[m.name] = true
	}
	for _, m := range p.metrics {
		if !have[m.name] {
			m.note = strings.TrimSuffix("quick pass of "+name+"; "+m.note, "; ")
			r.metrics = append(r.metrics, m)
		}
	}
	return nil
}

// selectMetrics orders what the workload measured by want. Every metric in
// want must be measured and carry the unit BENCHMARK.json gives it, and a
// workload may not measure a metric BENCHMARK.json does not name, so the
// program and the file cannot drift apart.
func selectMetrics(r *run, want []metricSpec) ([]metric, error) {
	got := map[string]metric{}
	for _, m := range r.metrics {
		if _, dup := got[m.name]; dup {
			return nil, fmt.Errorf("metric %s measured twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		got[m.name] = m
	}
	out := make([]metric, 0, len(want))
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s not measured", w.Name)
		case m.unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.unit, w.Unit)
		}
		delete(got, w.Name)
		out = append(out, m)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
	}
	return out, nil
}

// machineStamp describes where a record was measured.
func machineStamp(r *run) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       r.seed,
		"workload":   r.workload,
		"rate_per_s": r.rate,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
