package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pattern"
	"repro/internal/topo"
)

// FuzzParseScenarios checks the scenario-set parser never panics and that
// every set it accepts applies cleanly to the network it was resolved
// against.
func FuzzParseScenarios(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scenarios": []}`))
	f.Add([]byte(`{"scenarios": [{"name": "nominal"}]}`))
	f.Add([]byte(`{"scenarios": [{"name": "cut", "capacity_scale": {"WT": 0.5}, "weight": 2}]}`))
	f.Add([]byte(`{"scenarios": [{"rate_scale": {"class1": 1.5}}]}`))
	f.Add([]byte(`{"scenarios": [{"capacity_scale": {"WT": 0}}]}`))
	f.Add([]byte(`{"scenarios": [{"capacity_scale": {"nope": 0.5}}]}`))
	f.Add([]byte(`{"scenarios": [{"weight": -1}]}`))
	n := topo.Canada2Class(20, 20)
	f.Fuzz(func(t *testing.T, data []byte) {
		scenarios, err := ParseScenarios(data, n)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(scenarios) == 0 {
			t.Fatal("ParseScenarios accepted an empty set")
		}
		for _, sc := range scenarios {
			if sc.Name == "" {
				t.Fatal("accepted scenario without a name")
			}
			if _, err := sc.Apply(n); err != nil {
				t.Fatalf("accepted scenario %q does not apply: %v", sc.Name, err)
			}
		}
	})
}

// FuzzParseCheckpoint checks the checkpoint loader never panics on a
// log of any shape, and that every checkpoint it accepts survives a round
// trip through the bytes Save writes.
func FuzzParseCheckpoint(f *testing.F) {
	snapshot := `{"version": 2, "kind": "pattern-search", "dim": 2, "start": [1, 1], "best": [2, 3], "best_value": "-Inf", "step": [1, 1], "visited": {"2,3": 5.5}}`
	record := `{"commit": 2, "best": [2, 3], "best_value": 5.5, "step": [1, 1], "visited": {"3,3": "+Inf"}, "aux": {"active": [true]}}`
	f.Add([]byte("{}\n"))
	f.Add([]byte("[]\n"))
	f.Add([]byte(snapshot + "\n"))
	f.Add([]byte(snapshot))                                      // torn snapshot
	f.Add([]byte(snapshot + "\n" + record + "\n"))               // snapshot + record
	f.Add([]byte(snapshot + "\n" + record + "\n" + record[:20])) // torn final record
	f.Add([]byte(snapshot + "\n" + `{"commit": 3, "done": true}` + "\n"))
	f.Add([]byte(snapshot + "\n" + `{"commit": 3, "step": [1]}` + "\n"))
	f.Add([]byte(`{"version": 1, "kind": "pattern-search", "dim": 2, "start": [1, 1], "best": [1, 1], "step": [1, 1]}` + "\n"))
	f.Add([]byte(`{"version": 2, "kind": "pattern-search", "dim": 2, "start": [1], "best": [1, 1], "step": [1, 1]}` + "\n"))
	f.Add([]byte(`{"version": 2, "kind": "pattern-search", "dim": 1, "start": [1], "best": [1], "step": [1], "visited": {"bogus key": 1}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := pattern.ParseCheckpoint(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := ck.Save(path); err != nil {
			t.Fatalf("accepted checkpoint does not save: %v", err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := pattern.ParseCheckpoint(saved)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, saved)
		}
		if back.Dim != ck.Dim || back.Commits != ck.Commits || back.Done != ck.Done || len(back.Visited) != len(ck.Visited) {
			t.Fatalf("round trip changed checkpoint: dim %d/%d, commits %d/%d, done %v/%v, %d/%d visited",
				back.Dim, ck.Dim, back.Commits, ck.Commits, back.Done, ck.Done, len(back.Visited), len(ck.Visited))
		}
		for k, v := range ck.Visited {
			if math.Float64bits(float64(back.Visited[k])) != math.Float64bits(float64(v)) {
				t.Fatalf("visited[%q] round-tripped %v to %v", k, v, back.Visited[k])
			}
		}
	})
}
