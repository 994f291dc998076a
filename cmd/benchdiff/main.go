// Command benchdiff compares a `paperbench -json` run against a committed
// baseline and fails when a benchmark regressed beyond the tolerance band.
// It is the CI perf gate:
//
//	paperbench -json bench.json
//	benchdiff -baseline BENCH_baseline.json -current bench.json
//
// Timings are wall-clock and noisy on shared runners, so the time band is
// wide by default. Allocation counts get a tight band rather than none,
// because the parallel entries' counts vary with goroutine scheduling
// (DimensionParallel: 609 in the baseline, 670 on a 2-vCPU guest). The
// evaluations column — objective evaluations, or executed events for the
// simulator entries — is deterministic, so it must match exactly, up or
// down. A benchmark present in the baseline but missing from the current
// run fails the gate (coverage was lost); a new benchmark only in the
// current run is reported but passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/report"
)

// benchResult mirrors paperbench's -json entry.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Evaluations int     `json:"evaluations"`
}

type benchFile struct {
	Go         string        `json:"go"`
	CPU        string        `json:"cpu,omitempty"`
	Gomaxprocs int           `json:"gomaxprocs,omitempty"`
	Workers    int           `json:"workers"`
	Results    []benchResult `json:"results"`
}

// warnEnvMismatch flags baseline/current machine differences on stderr.
// Non-fatal: the gate still runs, but a SLOWER verdict measured on
// different hardware (or a different GOMAXPROCS) is circumstantial
// evidence, and the operator should know the band was crossed unfairly.
func warnEnvMismatch(base, cur *benchFile) {
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: baseline CPU %q vs current %q — wall-clock comparisons may mislead\n",
			base.CPU, cur.CPU)
	}
	if base.Gomaxprocs > 0 && cur.Gomaxprocs > 0 && base.Gomaxprocs != cur.Gomaxprocs {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: baseline GOMAXPROCS %d vs current %d — parallel timings may mislead\n",
			base.Gomaxprocs, cur.Gomaxprocs)
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
	current := fs.String("current", "", "freshly measured JSON (required)")
	timeTol := fs.Float64("time-tol", 0.50, "allowed fractional ns/op increase (wall clock is noisy)")
	allocTol := fs.Float64("alloc-tol", 0.15, "allowed fractional allocs/op increase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *current == "" {
		return fmt.Errorf("-current is required")
	}
	base, err := load(*baseline)
	if err != nil {
		return err
	}
	cur, err := load(*current)
	if err != nil {
		return err
	}
	warnEnvMismatch(base, cur)
	curByName := make(map[string]benchResult, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	baseNames := make(map[string]bool, len(base.Results))

	t := &report.Table{
		Title:   fmt.Sprintf("Benchmark diff — baseline %s (%s) vs current %s (%s)", *baseline, base.Go, *current, cur.Go),
		Headers: []string{"Benchmark", "ns/op", "Δ%", "allocs/op", "Δ%", "evals", "Δ%", "verdict"},
	}
	failures := 0
	var missing, evalChanged []string
	logRatioSum, ratioCount := 0.0, 0
	for _, b := range base.Results {
		baseNames[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			t.AddRow(b.Name, "-", "-", "-", "-", "-", "-", "MISSING")
			failures++
			missing = append(missing, b.Name)
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > 0 {
			logRatioSum += math.Log(c.NsPerOp / b.NsPerOp)
			ratioCount++
		}
		dTime := frac(c.NsPerOp, b.NsPerOp)
		dAlloc := frac(float64(c.AllocsPerOp), float64(b.AllocsPerOp))
		dEval := frac(float64(c.Evaluations), float64(b.Evaluations))
		var verdicts []string
		if dTime > *timeTol {
			verdicts = append(verdicts, "SLOWER")
		} else if dAlloc > *allocTol {
			verdicts = append(verdicts, "MORE ALLOCS")
		}
		// The exact evaluations check runs whatever the time and alloc
		// verdict, so an entry slowed by machine drift still has a
		// changed count named.
		if c.Evaluations != b.Evaluations {
			verdicts = append(verdicts, "EVALS CHANGED")
			evalChanged = append(evalChanged, fmt.Sprintf("%s (%d -> %d)", b.Name, b.Evaluations, c.Evaluations))
		}
		verdict := "ok"
		if len(verdicts) > 0 {
			verdict = strings.Join(verdicts, ", ")
			failures++
		}
		t.AddRow(b.Name,
			report.Float(c.NsPerOp, 0), pct(dTime),
			fmt.Sprint(c.AllocsPerOp), pct(dAlloc),
			fmt.Sprint(c.Evaluations), pct(dEval),
			verdict)
	}
	for _, c := range cur.Results {
		if !baseNames[c.Name] {
			t.AddRow(c.Name, report.Float(c.NsPerOp, 0), "-",
				fmt.Sprint(c.AllocsPerOp), "-", fmt.Sprint(c.Evaluations), "-", "new")
		}
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		return err
	}
	// The geometric mean of the per-benchmark ns/op ratios is the one
	// drift number comparable across runs: 1.00x means no aggregate
	// movement regardless of which individual benchmarks wobbled.
	geomean := "n/a"
	if ratioCount > 0 {
		geomean = fmt.Sprintf("%.3fx", math.Exp(logRatioSum/float64(ratioCount)))
	}
	if failures > 0 {
		var evals string
		if len(evalChanged) > 0 {
			evals = fmt.Sprintf("; evaluation counts changed: %s — they are deterministic, so if the change is intended re-record that column of the baseline and note it in CHANGES.md",
				strings.Join(evalChanged, ", "))
		}
		if len(missing) > 0 {
			return fmt.Errorf("%d benchmark(s) failed the gate (geomean ns/op ratio %s); baseline entries missing from the current run: %s — coverage was lost, re-run paperbench with the full suite or refresh the baseline%s",
				failures, geomean, strings.Join(missing, ", "), evals)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance (geomean ns/op ratio %s; time %+.0f%%, allocs %+.0f%%, evals exact)%s",
			failures, geomean, *timeTol*100, *allocTol*100, evals)
	}
	fmt.Printf("\nall %d benchmarks within tolerance, geomean ns/op ratio %s\n", len(base.Results), geomean)
	return nil
}

// frac returns the fractional increase of cur over base; a zero or
// negative base compares only for increases from nothing (any positive
// cur over a zero base counts as +inf-like 1e9, a sentinel the tolerances
// always catch — a benchmark that allocated nothing must stay that way).
func frac(cur, base float64) float64 {
	if base <= 0 {
		if cur <= 0 {
			return 0
		}
		return 1e9
	}
	return cur/base - 1
}

func pct(f float64) string {
	if f >= 1e9 {
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", f*100)
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return &f, nil
}
