// Package experiments regenerates every table and figure of the thesis's
// evaluation (Ch. 4 §4.5), plus the validation and ablation studies
// DESIGN.md commits to. Each experiment returns both structured data and
// a rendered report, so cmd/paperbench can print it and the root
// benchmarks can time it.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mva"
	"repro/internal/numeric"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Table47Row is one row of Table 4.7 (symmetric loadings, 2-class).
type Table47Row struct {
	S1, S2  float64
	Total   float64
	Windows numeric.IntVector
	Power   float64
	// Evaluations counts the objective evaluations WINDIM spent on the row
	// (cache hits excluded) — the cost metric the perf trajectory tracks.
	Evaluations int
}

// Table47Rates are the symmetric per-class rates of Table 4.7.
// The thesis's rows run from 25 to 150 msg/s of total traffic.
var Table47Rates = []float64{12.5, 15.5, 18, 20, 22.5, 25, 37.5, 50, 62.5, 75}

// Table47 dimensions the 2-class network across symmetric loads.
func Table47(opts core.Options) ([]Table47Row, error) {
	rows := make([]Table47Row, 0, len(Table47Rates))
	for _, s := range Table47Rates {
		n := topo.Canada2Class(s, s)
		res, err := core.Dimension(n, opts)
		if err != nil {
			return nil, fmt.Errorf("table 4.7 at S=%v: %w", s, err)
		}
		rows = append(rows, Table47Row{
			S1: s, S2: s, Total: 2 * s,
			Windows: res.Windows, Power: res.Metrics.Power,
			Evaluations: res.Search.Evaluations,
		})
	}
	return rows, nil
}

// RenderTable47 prints rows in the thesis's layout.
func RenderTable47(w io.Writer, rows []Table47Row) error {
	t := &report.Table{
		Title:   "Table 4.7 — Effect of symmetrical class loadings on optimal window settings (2-class network)",
		Headers: []string{"S1 (msg/s)", "S2 (msg/s)", "S1+S2", "Optimal windows", "Network power"},
	}
	for _, r := range rows {
		t.AddRow(report.Float(r.S1, 1), report.Float(r.S2, 1), report.Float(r.Total, 0),
			report.Windows(r.Windows), report.Float(r.Power, 0))
	}
	_, err := t.WriteTo(w)
	return err
}

// Table48Row is one row of Table 4.8 (dissimilar loadings, 2-class).
type Table48Row struct {
	S1, S2  float64
	Total   float64
	Ratio   float64
	Windows numeric.IntVector
	Power   float64
	// Evaluations counts the objective evaluations WINDIM spent on the row.
	Evaluations int
}

// Table48Loads are the (S1, S2) pairs of Table 4.8.
var Table48Loads = [][2]float64{
	{12, 13}, {10, 15}, {8.4, 16.6}, {7, 18}, {5, 20},
	{18, 18}, {15, 21}, {12, 24}, {9, 27},
}

// Table48 dimensions the 2-class network across dissimilar loads.
func Table48(opts core.Options) ([]Table48Row, error) {
	rows := make([]Table48Row, 0, len(Table48Loads))
	for _, p := range Table48Loads {
		n := topo.Canada2Class(p[0], p[1])
		res, err := core.Dimension(n, opts)
		if err != nil {
			return nil, fmt.Errorf("table 4.8 at S=%v: %w", p, err)
		}
		rows = append(rows, Table48Row{
			S1: p[0], S2: p[1], Total: p[0] + p[1], Ratio: p[1] / p[0],
			Windows: res.Windows, Power: res.Metrics.Power,
			Evaluations: res.Search.Evaluations,
		})
	}
	return rows, nil
}

// RenderTable48 prints rows in the thesis's layout.
func RenderTable48(w io.Writer, rows []Table48Row) error {
	t := &report.Table{
		Title:   "Table 4.8 — Effect of dissimilar class loadings on optimal window settings (2-class network)",
		Headers: []string{"S1 (msg/s)", "S2 (msg/s)", "S1+S2", "S2/S1", "Optimal windows", "Network power"},
	}
	for _, r := range rows {
		t.AddRow(report.Float(r.S1, 1), report.Float(r.S2, 1), report.Float(r.Total, 0),
			report.Float(r.Ratio, 2), report.Windows(r.Windows), report.Float(r.Power, 0))
	}
	_, err := t.WriteTo(w)
	return err
}

// Fig49Series holds power-versus-load curves for fixed window settings
// (Fig. 4.9).
type Fig49Series struct {
	Window int       // the symmetric setting (E, E)
	Rates  []float64 // S1 = S2 sweep
	Power  []float64
}

// Fig49Windows are the fixed symmetric windows plotted in Fig. 4.9.
var Fig49Windows = []int{1, 2, 3, 4, 5, 6, 7}

// Fig49Rates is the arrival-rate sweep of Fig. 4.9.
var Fig49Rates = []float64{2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 22.5, 25, 30, 35, 40, 50, 60, 75, 90, 100}

// Fig49 sweeps power against symmetric load for each fixed window. The
// sweep is rate-outer: each rate's network is turned into one core.Engine
// and every window evaluated against it, so the model is built and
// validated once per rate instead of once per point.
func Fig49(opts core.Options) ([]Fig49Series, error) {
	out := make([]Fig49Series, len(Fig49Windows))
	for i, e := range Fig49Windows {
		out[i] = Fig49Series{Window: e}
	}
	for _, rate := range Fig49Rates {
		n := topo.Canada2Class(rate, rate)
		eng, err := core.NewEngine(n, opts)
		if err != nil {
			return nil, fmt.Errorf("fig 4.9 at S=%v: %w", rate, err)
		}
		for i, e := range Fig49Windows {
			m, err := eng.Evaluate(numeric.IntVector{e, e})
			if err != nil {
				return nil, fmt.Errorf("fig 4.9 at E=%d S=%v: %w", e, rate, err)
			}
			out[i].Rates = append(out[i].Rates, rate)
			out[i].Power = append(out[i].Power, m.Power)
		}
	}
	return out, nil
}

// RenderFig49 prints the curves as an ASCII chart plus a data table.
func RenderFig49(w io.Writer, series []Fig49Series) error {
	chart := make([]report.Series, 0, len(series))
	for _, s := range series {
		chart = append(chart, report.Series{
			Name:   fmt.Sprintf("E=(%d,%d)", s.Window, s.Window),
			X:      s.Rates,
			Y:      s.Power,
			Marker: byte('0' + s.Window),
		})
	}
	if err := report.Chart(w, "Fig. 4.9 — Network power vs class arrival rate S1=S2", 72, 18, chart...); err != nil {
		return err
	}
	t := &report.Table{Headers: append([]string{"S1=S2"}, windowHeaders(series)...)}
	for i, rate := range series[0].Rates {
		cells := []string{report.Float(rate, 1)}
		for _, s := range series {
			cells = append(cells, report.Float(s.Power[i], 1))
		}
		t.AddRow(cells...)
	}
	_, err := t.WriteTo(w)
	return err
}

func windowHeaders(series []Fig49Series) []string {
	hs := make([]string, len(series))
	for i, s := range series {
		hs[i] = fmt.Sprintf("P(E=%d,%d)", s.Window, s.Window)
	}
	return hs
}

// Table412Row is one row of Table 4.12 (4-class network).
type Table412Row struct {
	S       [4]float64
	Total   float64
	Windows numeric.IntVector
	PowerOp float64
	P4431   float64
}

// Table412Rates are the eight arrival-rate vectors of Table 4.12.
var Table412Rates = [][4]float64{
	{6, 6, 6, 12},
	{9.957, 4.419, 7.656, 7.968},
	{17.61, 3.56, 3, 5.83},
	{12.50, 12.50, 12.50, 25},
	{21.24, 9.86, 18.85, 12.55},
	{33.59, 1.70, 24.15, 3.06},
	{20, 20, 20, 40},
	{28.18, 38.02, 2.87, 30.93},
}

// Table412 dimensions the 4-class network and compares against the
// Kleinrock hop-count baseline (4, 4, 3, 1).
func Table412(opts core.Options) ([]Table412Row, error) {
	rows := make([]Table412Row, 0, len(Table412Rates))
	for _, s := range Table412Rates {
		n := topo.Canada4Class(s[0], s[1], s[2], s[3])
		res, err := core.Dimension(n, opts)
		if err != nil {
			return nil, fmt.Errorf("table 4.12 at S=%v: %w", s, err)
		}
		base, err := core.Evaluate(n, core.KleinrockWindows(n), opts)
		if err != nil {
			return nil, fmt.Errorf("table 4.12 baseline at S=%v: %w", s, err)
		}
		rows = append(rows, Table412Row{
			S: s, Total: s[0] + s[1] + s[2] + s[3],
			Windows: res.Windows, PowerOp: res.Metrics.Power, P4431: base.Power,
		})
	}
	return rows, nil
}

// RenderTable412 prints rows in the thesis's layout.
func RenderTable412(w io.Writer, rows []Table412Row) error {
	t := &report.Table{
		Title:   "Table 4.12 — Effect of traffic arrival rates on optimal window settings (4-class network)",
		Headers: []string{"S1", "S2", "S3", "S4", "Total", "E_op", "P_op", "P_4431"},
	}
	for _, r := range rows {
		t.AddRow(
			report.Float(r.S[0], 2), report.Float(r.S[1], 2), report.Float(r.S[2], 2), report.Float(r.S[3], 2),
			report.Float(r.Total, 1), report.Windows(r.Windows),
			report.Float(r.PowerOp, 0), report.Float(r.P4431, 0))
	}
	_, err := t.WriteTo(w)
	return err
}

// Fig21Point is one operating point of the throughput-vs-offered-load
// curve (the qualitative Fig. 2.1).
type Fig21Point struct {
	Offered    float64
	Throughput float64
	Deadlocked bool
}

// Fig21Config parameterises the congestion experiment.
type Fig21Config struct {
	// Window applied to every class; 0 disables end-to-end control.
	Window int
	// Buffers is the per-node storage limit K_i.
	Buffers int
	// Seed, Duration, Warmup as in sim.Config.
	Seed     uint64
	Duration float64
	Warmup   float64
}

// Fig21Rates is the offered-load sweep (per class, msg/s).
var Fig21Rates = []float64{5, 10, 15, 20, 25, 30, 35, 40, 50, 60}

// Fig21 simulates the 2-class network with finite node buffers across
// offered loads, with and without windows, showing the Fig. 2.1 shape:
// without flow control, throughput peaks and then collapses as buffers
// fill and store-and-forward blocking spreads; windows hold it up.
func Fig21(cfg Fig21Config) ([]Fig21Point, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 400
		cfg.Warmup = 50
	}
	points := make([]Fig21Point, 0, len(Fig21Rates))
	for _, rate := range Fig21Rates {
		n := topo.Canada2Class(rate, rate)
		buffers := make([]int, len(n.Nodes))
		for i := range buffers {
			buffers[i] = cfg.Buffers
		}
		res, err := sim.Run(n, sim.Config{
			Windows:     numeric.IntVector{cfg.Window, cfg.Window},
			Seed:        cfg.Seed,
			Duration:    cfg.Duration,
			Warmup:      cfg.Warmup,
			Source:      sim.SourceBacklogged,
			NodeBuffers: buffers,
		})
		if err != nil {
			return nil, fmt.Errorf("fig 2.1 at S=%v: %w", rate, err)
		}
		points = append(points, Fig21Point{
			Offered:    2 * rate,
			Throughput: res.Throughput,
			Deadlocked: res.Deadlocked,
		})
	}
	return points, nil
}

// RenderFig21 prints controlled and uncontrolled curves side by side.
func RenderFig21(w io.Writer, uncontrolled, controlled []Fig21Point) error {
	mk := func(points []Fig21Point) (xs, ys []float64) {
		for _, p := range points {
			xs = append(xs, p.Offered)
			ys = append(ys, p.Throughput)
		}
		return
	}
	ux, uy := mk(uncontrolled)
	cx, cy := mk(controlled)
	if err := report.Chart(w, "Fig. 2.1 — Throughput vs offered load (finite buffers)", 72, 14,
		report.Series{Name: "no flow control", X: ux, Y: uy, Marker: 'x'},
		report.Series{Name: "windows dimensioned", X: cx, Y: cy, Marker: 'o'},
	); err != nil {
		return err
	}
	t := &report.Table{Headers: []string{"Offered (msg/s)", "Thruput, no control", "deadlock", "Thruput, windows", "deadlock"}}
	for i := range uncontrolled {
		t.AddRow(
			report.Float(uncontrolled[i].Offered, 1),
			report.Float(uncontrolled[i].Throughput, 2), fmt.Sprint(uncontrolled[i].Deadlocked),
			report.Float(controlled[i].Throughput, 2), fmt.Sprint(controlled[i].Deadlocked))
	}
	_, err := t.WriteTo(w)
	return err
}

// ValidationRow compares the solvers on one window setting of the 2-class
// network.
type ValidationRow struct {
	Windows    numeric.IntVector
	ExactPower float64
	SigmaPower float64
	SchwPower  float64
	SimPower   float64
	SimCI      float64 // 95% CI half-width on the simulated delay, seconds
}

// Validate cross-checks the sigma-heuristic, Schweitzer AMVA and the
// simulator against exact MVA on the 2-class network at the given load.
func Validate(s float64, seed uint64) ([]ValidationRow, error) {
	var rows []ValidationRow
	for _, e := range []int{1, 2, 3, 4, 5, 6} {
		n := topo.Canada2Class(s, s)
		w := numeric.IntVector{e, e}
		exact, err := core.Evaluate(n, w, core.Options{Evaluator: core.EvalExactMVA})
		if err != nil {
			return nil, err
		}
		sig, err := core.Evaluate(n, w, core.Options{Evaluator: core.EvalSigmaMVA})
		if err != nil {
			return nil, err
		}
		schw, err := core.Evaluate(n, w, core.Options{Evaluator: core.EvalSchweitzerMVA})
		if err != nil {
			return nil, err
		}
		simRes, err := sim.Run(n, sim.Config{Windows: w, Seed: seed, Duration: 3000, Warmup: 300})
		if err != nil {
			return nil, err
		}
		ci := 0.0
		for _, c := range simRes.PerClass {
			ci += c.DelayCI95
		}
		rows = append(rows, ValidationRow{
			Windows:    w,
			ExactPower: exact.Power,
			SigmaPower: sig.Power,
			SchwPower:  schw.Power,
			SimPower:   simRes.Power,
			SimCI:      ci / float64(len(simRes.PerClass)),
		})
	}
	return rows, nil
}

// RenderValidation prints the cross-solver comparison.
func RenderValidation(w io.Writer, s float64, rows []ValidationRow) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Validation — power by solver, 2-class network at S1=S2=%v msg/s", s),
		Headers: []string{"Windows", "Exact MVA", "Sigma AMVA", "Schweitzer", "Simulation", "sim delay CI95 (s)"},
	}
	for _, r := range rows {
		t.AddRow(report.Windows(r.Windows),
			report.Float(r.ExactPower, 1), report.Float(r.SigmaPower, 1),
			report.Float(r.SchwPower, 1), report.Float(r.SimPower, 1),
			report.Float(r.SimCI, 4))
	}
	_, err := t.WriteTo(w)
	return err
}

// AblationRow compares WINDIM variants on one network.
type AblationRow struct {
	Name        string
	Windows     numeric.IntVector
	Power       float64
	Evaluations int
}

// Ablation runs WINDIM on the 4-class network with each evaluator and
// each initialisation, and against exhaustive search with the exact
// evaluator — quantifying what the thesis's design choices buy.
func Ablation(s [4]float64) ([]AblationRow, error) {
	n := topo.Canada4Class(s[0], s[1], s[2], s[3])
	var rows []AblationRow
	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"pattern + sigma AMVA (thesis)", core.Options{}},
		{"pattern + Schweitzer AMVA", core.Options{Evaluator: core.EvalSchweitzerMVA}},
		{"pattern + Linearizer AMVA", core.Options{Evaluator: core.EvalLinearizerMVA}},
		{"pattern + sigma, bottleneck init", core.Options{MVA: mva.Options{Init: mva.Bottleneck}}},
		{"pattern + exact MVA", core.Options{Evaluator: core.EvalExactMVA, MaxWindow: 8}},
		{"exhaustive + exact MVA (reference)", core.Options{Evaluator: core.EvalExactMVA, Search: core.ExhaustiveSearch, MaxWindow: 6}},
	}
	for _, v := range variants {
		res, err := core.Dimension(n, v.opts)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		// Judge every variant's chosen windows under the same exact
		// model so powers are comparable.
		judged, err := core.Evaluate(n, res.Windows, core.Options{Evaluator: core.EvalExactMVA})
		var p float64
		if err == nil {
			p = judged.Power
		} else {
			p = res.Metrics.Power
		}
		rows = append(rows, AblationRow{
			Name: v.name, Windows: res.Windows, Power: p,
			Evaluations: res.Search.Evaluations,
		})
	}
	return rows, nil
}

// RenderAblation prints the ablation table.
func RenderAblation(w io.Writer, s [4]float64, rows []AblationRow) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation — WINDIM variants on the 4-class network at S=%v (power judged by exact MVA)", s),
		Headers: []string{"Variant", "Windows", "Power (exact)", "Objective evals"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, report.Windows(r.Windows), report.Float(r.Power, 1), fmt.Sprint(r.Evaluations))
	}
	_, err := t.WriteTo(w)
	return err
}
