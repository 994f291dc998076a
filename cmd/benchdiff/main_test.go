package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCapture runs benchdiff with args and returns what it printed to
// stdout along with its error.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	runErr := run(args)
	wp.Close()
	os.Stdout = old
	out, err := io.ReadAll(rp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

const baseJSON = `{"go":"go1.24.0","workers":4,"results":[
	{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
	{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`

func TestBenchdiffWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1200,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
		{"name":"B","ns_per_op":1900,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err != nil {
		t.Fatalf("in-band diff failed: %v", err)
	}
}

func TestBenchdiffTimeRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":9000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
		{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`)
	err := run([]string{"-baseline", base, "-current", cur})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("9x slowdown passed the gate: %v", err)
	}
}

func TestBenchdiffZeroAllocBaseline(t *testing.T) {
	// A benchmark the baseline records as allocation-free must stay that
	// way: any allocation trips the gate regardless of tolerance.
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
		{"name":"B","ns_per_op":2000,"allocs_per_op":3,"bytes_per_op":64,"evaluations":0}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err == nil {
		t.Fatal("new allocations on a zero-alloc benchmark passed the gate")
	}
}

func TestBenchdiffMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err == nil {
		t.Fatal("dropped benchmark passed the gate")
	}
}

func TestBenchdiffNewBenchmarkAllowed(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
		{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0},
		{"name":"C","ns_per_op":500,"allocs_per_op":1,"bytes_per_op":8,"evaluations":1}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err != nil {
		t.Fatalf("new benchmark failed the gate: %v", err)
	}
}

func TestBenchdiffEnvMismatchWarnsOnly(t *testing.T) {
	// A baseline measured on different hardware (CPU model, GOMAXPROCS)
	// must produce a warning, never a failure: the results themselves are
	// in band here.
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json",
		`{"go":"go1.24.0","cpu":"Old CPU @ 2.0GHz","gomaxprocs":4,"workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5}]}`)
	cur := writeBench(t, dir, "cur.json",
		`{"go":"go1.24.0","cpu":"New CPU @ 5.0GHz","gomaxprocs":16,"workers":4,"results":[
		{"name":"A","ns_per_op":1100,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err != nil {
		t.Fatalf("machine mismatch failed the gate: %v", err)
	}
	// Files without the machine fields (older baselines) stay silent and green.
	legacy := writeBench(t, dir, "legacy.json", baseJSON)
	curLegacy := writeBench(t, dir, "curlegacy.json", baseJSON)
	if err := run([]string{"-baseline", legacy, "-current", curLegacy}); err != nil {
		t.Fatalf("legacy headers failed the gate: %v", err)
	}
}

func TestBenchdiffEvalRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":9},
		{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`)
	if err := run([]string{"-baseline", base, "-current", cur}); err == nil {
		t.Fatal("80% more objective evaluations passed the gate")
	}
}

// TestBenchdiffEvalCountsExact: evaluation counts are deterministic, so any
// drift fails — a +20% rise the old band let through, and a single
// evaluation fewer — and the message names the entry and the remedy.
func TestBenchdiffEvalCountsExact(t *testing.T) {
	base := `{"go":"go1.24.0","workers":4,"results":[
		{"name":"Table47","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":78}]}`
	for name, evals := range map[string]string{"+20%": "94", "-1": "77"} {
		dir := t.TempDir()
		basePath := writeBench(t, dir, "base.json", base)
		cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"Table47","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":`+evals+`}]}`)
		err := run([]string{"-baseline", basePath, "-current", cur})
		if err == nil {
			t.Fatalf("%s evaluation drift passed the gate", name)
		}
		for _, want := range []string{"Table47 (78 -> " + evals + ")", "re-record", "CHANGES.md"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", name, err, want)
			}
		}
	}
}

// TestBenchdiffEvalChangeBehindSlower: an entry that is both slower and
// changed in evaluations must still have the evaluation change named.
func TestBenchdiffEvalChangeBehindSlower(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":9000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":6},
		{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`)
	out, runErr := runCapture(t, "-baseline", base, "-current", cur)
	if runErr == nil {
		t.Fatal("9x slowdown with changed evaluations passed the gate")
	}
	if !strings.Contains(runErr.Error(), "A (5 -> 6)") {
		t.Errorf("error %q does not name the evaluation change", runErr)
	}
	if !strings.Contains(out, "SLOWER, EVALS CHANGED") {
		t.Errorf("table lacks the combined verdict:\n%s", out)
	}
	if !strings.Contains(runErr.Error(), "1 benchmark(s)") {
		t.Errorf("one entry counted more than once: %v", runErr)
	}
}

func TestBenchdiffMissingNamesInError(t *testing.T) {
	// The failure message must name the lost baseline entries so the
	// operator knows which coverage disappeared, not just that some did.
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":1000,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5}]}`)
	err := run([]string{"-baseline", base, "-current", cur})
	if err == nil {
		t.Fatal("dropped benchmark passed the gate")
	}
	if !strings.Contains(err.Error(), "missing from the current run: B") {
		t.Fatalf("error must name the missing benchmark: %v", err)
	}
	if !strings.Contains(err.Error(), "geomean") {
		t.Fatalf("error must carry the geomean ratio: %v", err)
	}
}

func TestBenchdiffGeomeanLine(t *testing.T) {
	// A 0.5x, B 1.0x: the verdict line must report geomean sqrt(0.5) = 0.707x.
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", baseJSON)
	cur := writeBench(t, dir, "cur.json", `{"go":"go1.24.0","workers":4,"results":[
		{"name":"A","ns_per_op":500,"allocs_per_op":10,"bytes_per_op":100,"evaluations":5},
		{"name":"B","ns_per_op":2000,"allocs_per_op":0,"bytes_per_op":0,"evaluations":0}]}`)
	out, runErr := runCapture(t, "-baseline", base, "-current", cur)
	if runErr != nil {
		t.Fatalf("in-band diff failed: %v", runErr)
	}
	if !strings.Contains(out, "geomean ns/op ratio 0.707x") {
		t.Fatalf("verdict line missing geomean ratio:\n%s", out)
	}
}
