package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-duration", "200", "-warmup", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithControls(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-windows", "0,0",
		"-duration", "100", "-warmup", "10",
		"-source", "backlogged", "-buffers", "4", "-permits", "6",
		"-correlated-lengths"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	if err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-duration", "3000", "-warmup", "300",
		"-faults", "../../examples/faults.json"}); err != nil {
		t.Fatal(err)
	}
	// Replicated faulted runs work too.
	if err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-duration", "500", "-warmup", "50", "-reps", "3",
		"-faults", "../../examples/faults.json"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultsRejectedVerbatim: an invalid fault file is refused with
// the exact error the spec's own validation produces.
func TestRunFaultsRejectedVerbatim(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"surges": [
		{"class": "class1", "start_sec": 1, "end_sec": 10, "factor": 2},
		{"class": "class1", "start_sec": 5, "end_sec": 15, "factor": 3}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-duration", "100", "-warmup", "10", "-faults", bad})
	if err == nil {
		t.Fatal("invalid fault file accepted")
	}
	want := (&sim.FaultSpec{Surges: []sim.Surge{
		{Class: 0, Start: 1, End: 10, Factor: 2},
		{Class: 0, Start: 5, End: 15, Factor: 3},
	}}).Validate(topo.Canada2Class(20, 20))
	if want == nil || err.Error() != want.Error() {
		t.Errorf("error %q, want the validate error %q verbatim", err, want)
	}

	if err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-faults", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing fault file accepted")
	}
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"outages": [{"channel": "nosuch", "start_sec": 1, "end_sec": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-example", "canada2", "-windows", "4,4", "-faults", unknown})
	if err == nil || !strings.Contains(err.Error(), `unknown channel "nosuch"`) {
		t.Errorf("unknown-channel error: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-example", "canada2", "-source", "telepathic"},
		{"-example", "canada2", "-windows", "x"},
		{"-example", "canada2", "-duration", "-5"},
		{"-nope"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-example", "canada2", "-windows", "4,4",
		"-duration", "200", "-warmup", "20",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
