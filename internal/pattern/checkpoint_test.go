package pattern

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/numeric"
)

// quad2 is a smooth 2-D objective with its lattice optimum at (7, 12).
func quad2(x numeric.IntVector) (float64, error) {
	dx, dy := float64(x[0]-7), float64(x[1]-12)
	return dx*dx + dy*dy + 3, nil
}

func TestJSONFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1, -2.5, 1e-300, math.MaxFloat64, math.Pi, math.Inf(1), math.Inf(-1), math.NaN(), 0.1}
	for _, v := range values {
		data, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back JSONFloat
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("%v round-tripped to %v (%s)", v, float64(back), data)
		}
	}
	var f JSONFloat
	for _, bad := range []string{`"fast"`, `"1e"`, `[]`, `""`} {
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestParseCheckpointRejects(t *testing.T) {
	const snapshot = `{"version": 2, "kind": "pattern-search", "dim": 2}`
	bad := []string{
		`{"version": 1, "kind": "pattern-search", "dim": 1}`,
		`{"version": 2, "kind": "exhaustive", "dim": 1}`,
		`{"version": 2, "kind": "pattern-search", "dim": 0}`,
		`{"version": 2, "kind": "pattern-search", "dim": 2, "best": [1]}`,
		`{"version": 2, "kind": "pattern-search", "dim": 2, "visited": {"1": 0}}`,
		`{"version": 2, "kind": "pattern-search", "dim": 2, "visited": {"1,x": 0}}`,
		snapshot + "\n" + `{"commit": 2, "step": [1]}`,
		snapshot + "\n" + `{"commit": 2, "visited": {"1": 0}}`,
		snapshot + "\n" + `not json` + "\n" + `{"commit": 3}`,
		`not json`,
	}
	for _, in := range bad {
		if _, err := ParseCheckpoint([]byte(in + "\n")); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
	if _, err := ParseCheckpoint([]byte(snapshot + "\n")); err != nil {
		t.Errorf("rejected %s: %v", snapshot, err)
	}
	// The snapshot is published whole, so an unterminated one is not a
	// checkpoint at all.
	if _, err := ParseCheckpoint([]byte(snapshot)); err == nil {
		t.Error("accepted an unterminated snapshot line")
	}
}

// TestCheckpointSaveLoad: Save publishes atomically (no temp litter), Load
// restores every field including non-finite cache values.
func TestCheckpointSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	cp := &Checkpoint{
		Version: CheckpointVersion, Kind: "pattern-search", ModelHash: "abc",
		Dim: 2, Start: []int{4, 4}, Best: []int{7, 12}, BestValue: 3,
		Step: []int{2, 2}, Halvings: 1, Commits: 5, Evaluations: 17,
		Visited: map[string]JSONFloat{"7,12": 3, "0,-1": JSONFloat(math.Inf(1))},
		Aux:     json.RawMessage(`{"active":[true]}`),
	}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite must also work (the steady-state path).
	cp.Commits = 6
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ModelHash != "abc" || back.Commits != 6 || back.Halvings != 1 ||
		back.Best[0] != 7 || back.Best[1] != 12 || float64(back.BestValue) != 3 {
		t.Fatalf("loaded checkpoint differs: %+v", back)
	}
	if !math.IsInf(float64(back.Visited["0,-1"]), 1) {
		t.Errorf("infeasible cache value lost: %v", back.Visited["0,-1"])
	}
	if string(back.Aux) != `{"active":[true]}` {
		t.Errorf("aux lost: %s", back.Aux)
	}
}

// cancelAfter builds an objective wrapper and context: the context cancels
// once the objective has been called n times, so the search dies at a
// deterministic depth into its trajectory.
func cancelAfter(n int64) (Objective, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	obj := func(x numeric.IntVector) (float64, error) {
		if atomic.AddInt64(&calls, 1) >= n {
			cancel()
		}
		return quad2(x)
	}
	return obj, ctx
}

// TestSearchCheckpointResume is the tentpole's core guarantee at the
// pattern layer: kill the search at several depths, resume from the
// checkpoint, and land on the bit-identical result of the uninterrupted
// run — serially and with speculative workers.
func TestSearchCheckpointResume(t *testing.T) {
	start := numeric.IntVector{2, 2}
	base := Options{InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3}
	ref, err := Search(quad2, start, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, killAt := range []int64{2, 5, 9} {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			obj, ctx := cancelAfter(killAt)
			opts := base
			opts.Workers = workers
			opts.Context = ctx
			opts.Checkpoint = &CheckpointOptions{Path: path, ModelHash: "h"}
			if _, err := Search(obj, start, opts); err == nil {
				t.Fatalf("workers=%d killAt=%d: search survived cancellation", workers, killAt)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("workers=%d killAt=%d: %v", workers, killAt, err)
			}
			if ck.Done {
				t.Fatalf("workers=%d killAt=%d: cancelled checkpoint marked done", workers, killAt)
			}
			if ck.ModelHash != "h" {
				t.Fatalf("model hash lost: %q", ck.ModelHash)
			}
			resumed := base
			resumed.Workers = workers
			resumed.Resume = ck
			res, err := Search(quad2, start, resumed)
			if err != nil {
				t.Fatalf("workers=%d killAt=%d: resume: %v", workers, killAt, err)
			}
			if !res.Best.Equal(ref.Best) ||
				math.Float64bits(res.BestValue) != math.Float64bits(ref.BestValue) {
				t.Errorf("workers=%d killAt=%d: resumed best %v (%v) vs uninterrupted %v (%v)",
					workers, killAt, res.Best, res.BestValue, ref.Best, ref.BestValue)
			}
			if len(res.BasePoints) != len(ref.BasePoints) {
				t.Fatalf("workers=%d killAt=%d: trajectory lengths %d vs %d",
					workers, killAt, len(res.BasePoints), len(ref.BasePoints))
			}
			for i := range res.BasePoints {
				if !res.BasePoints[i].Equal(ref.BasePoints[i]) {
					t.Errorf("workers=%d killAt=%d: base point %d: %v vs %v",
						workers, killAt, i, res.BasePoints[i], ref.BasePoints[i])
				}
			}
			if res.Evaluations >= ref.Evaluations {
				t.Errorf("workers=%d killAt=%d: resume made %d objective calls, uninterrupted made %d — no replay happened",
					workers, killAt, res.Evaluations, ref.Evaluations)
			}
		}
	}
}

// TestSearchResumeFromDone: a checkpoint written at normal termination
// replays to the final answer with zero objective calls.
func TestSearchResumeFromDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	start := numeric.IntVector{2, 2}
	opts := Options{InitialStep: numeric.IntVector{4, 4}, Checkpoint: &CheckpointOptions{Path: path}}
	ref, err := Search(quad2, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done {
		t.Fatal("final checkpoint not marked done")
	}
	calls := 0
	counting := func(x numeric.IntVector) (float64, error) { calls++; return quad2(x) }
	res, err := Search(counting, start, Options{InitialStep: numeric.IntVector{4, 4}, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("resume from a done checkpoint made %d objective calls", calls)
	}
	if !res.Best.Equal(ref.Best) || math.Float64bits(res.BestValue) != math.Float64bits(ref.BestValue) {
		t.Errorf("resumed %v (%v) vs original %v (%v)", res.Best, res.BestValue, ref.Best, ref.BestValue)
	}
}

// TestSearchResumeDimensionMismatch: a checkpoint of the wrong dimension is
// rejected before any evaluation.
func TestSearchResumeDimensionMismatch(t *testing.T) {
	ck := &Checkpoint{Version: CheckpointVersion, Kind: "pattern-search", Dim: 3}
	if _, err := Search(quad2, numeric.IntVector{2, 2}, Options{Resume: ck}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestSearchCheckpointCadence: Every > 1 skips intermediate commits but the
// final snapshot always lands.
func TestSearchCheckpointCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	writes := 0
	// Count writes by watching the file's inode change is fragile; instead
	// count via Aux, which is invoked exactly once per snapshot.
	opts := Options{
		InitialStep: numeric.IntVector{4, 4},
		Checkpoint: &CheckpointOptions{
			Path: path, Every: 1000,
			Aux: func() json.RawMessage { writes++; return nil },
		},
	}
	if _, err := Search(quad2, numeric.IntVector{2, 2}, opts); err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Errorf("cadence 1000 wrote %d snapshots, want only the final one", writes)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done {
		t.Error("final snapshot not marked done")
	}
}

// TestSearchCheckpointBadPath: an unwritable checkpoint path fails fast at
// the first commit, not at the first crash.
func TestSearchCheckpointBadPath(t *testing.T) {
	opts := Options{Checkpoint: &CheckpointOptions{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt")}}
	if _, err := Search(quad2, numeric.IntVector{2, 2}, opts); err == nil {
		t.Fatal("unwritable checkpoint path accepted")
	}
}
