package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// cancelAfterCommits wires the onCommit test hook to a context that dies
// once the pattern search has committed n base points — a deterministic
// stand-in for kill -9 at a known depth of the trajectory.
func cancelAfterCommits(n int, opts *Options) {
	ctx, cancel := context.WithCancel(context.Background())
	commits := 0
	opts.Context = ctx
	opts.OnCommit = func(numeric.IntVector, float64) {
		commits++
		if commits >= n {
			cancel()
		}
	}
}

// TestDimensionCheckpointResume is the tentpole's acceptance test: kill a
// dimensioning run after K commits, resume from the checkpoint, and land on
// windows and objective bit-identical to the uninterrupted run — serially
// and at Workers > 1, in every combination of interrupted and resumed
// worker counts the cache replay claims to support.
func TestDimensionCheckpointResume(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	// Start far from the optimum so the search commits several base points
	// (the hop-count start is already optimal and commits only once).
	far := func() Options {
		return Options{
			InitialWindows: numeric.IntVector{16, 16},
		}
	}
	ref, err := Dimension(n, far())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Search.BasePoints) < 3 {
		t.Fatalf("reference run commits %d base points; the kill depths below need 3+", len(ref.Search.BasePoints))
	}
	for _, workers := range []int{1, 8} {
		for _, killAt := range []int{1, 2} {
			path := filepath.Join(t.TempDir(), "windim.ckpt")
			interrupted := far()
			interrupted.Workers = workers
			interrupted.CheckpointPath = path
			cancelAfterCommits(killAt, &interrupted)
			res, err := Dimension(n, interrupted)
			if err == nil {
				t.Fatalf("workers=%d killAt=%d: cancelled run returned nil error", workers, killAt)
			}
			if res == nil || res.Windows == nil {
				t.Fatalf("workers=%d killAt=%d: no best-so-far result", workers, killAt)
			}
			// Resume at the OTHER worker count: the checkpoint must be
			// interchangeable across parallelism.
			ropts := far()
			ropts.Workers = 9 - workers
			ropts.ResumePath = path
			resumed, err := Dimension(n, ropts)
			if err != nil {
				t.Fatalf("workers=%d killAt=%d: resume: %v", workers, killAt, err)
			}
			if !resumed.Windows.Equal(ref.Windows) {
				t.Errorf("workers=%d killAt=%d: resumed windows %v, uninterrupted %v",
					workers, killAt, resumed.Windows, ref.Windows)
			}
			if math.Float64bits(resumed.Search.BestValue) != math.Float64bits(ref.Search.BestValue) {
				t.Errorf("workers=%d killAt=%d: resumed objective %v, uninterrupted %v",
					workers, killAt, resumed.Search.BestValue, ref.Search.BestValue)
			}
			if math.Float64bits(resumed.Metrics.Power) != math.Float64bits(ref.Metrics.Power) {
				t.Errorf("workers=%d killAt=%d: resumed power %v, uninterrupted %v",
					workers, killAt, resumed.Metrics.Power, ref.Metrics.Power)
			}
			if resumed.Search.Evaluations >= ref.Search.Evaluations {
				t.Errorf("workers=%d killAt=%d: resume spent %d evaluations, uninterrupted %d — cache not replayed",
					workers, killAt, resumed.Search.Evaluations, ref.Search.Evaluations)
			}
		}
	}
}

// TestDimensionCheckpointFullEvery: the single-log checkpoint plumbs
// through core. A per-commit run keeps exactly one file in its directory
// at every commit (no sidecar), growing by appends; a run that resumes
// from and checkpoints to that same file finishes bit-identical to the
// uninterrupted run and leaves the one file, marked done. (Cancellation
// always writes a final record, so crash-resume through a torn tail is
// covered at the pattern layer, where a hard objective failure can be
// injected.)
func TestDimensionCheckpointFullEvery(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	far := func() Options {
		return Options{
			InitialWindows: numeric.IntVector{16, 16},
		}
	}
	ref, err := Dimension(n, far())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "windim.ckpt")
	onlyCheckpoint := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "windim.ckpt" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Errorf("%s: directory holds %v, want only windim.ckpt", when, names)
		}
	}
	opts := far()
	opts.CheckpointPath = path
	cancelAfterCommits(3, &opts)
	inner := opts.OnCommit
	commits, lastSize := 0, int64(0)
	opts.OnCommit = func(x numeric.IntVector, fx float64) {
		// OnCommit runs before the commit's own write: from the second
		// commit on, the file holds everything up to the previous one.
		if commits++; commits > 1 {
			onlyCheckpoint("mid-run")
			if fi, err := os.Stat(path); err == nil {
				if fi.Size() <= lastSize {
					t.Errorf("commit %d: checkpoint did not grow (%d -> %d bytes)", commits, lastSize, fi.Size())
				}
				lastSize = fi.Size()
			}
		}
		inner(x, fx)
	}
	if _, err := Dimension(n, opts); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if commits < 3 || lastSize == 0 {
		t.Fatalf("run committed %d times, last seen checkpoint %d bytes; the checks above need 3 commits", commits, lastSize)
	}
	ropts := far()
	ropts.CheckpointPath = path
	ropts.ResumePath = path
	resumed, err := Dimension(n, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Windows.Equal(ref.Windows) ||
		math.Float64bits(resumed.Search.BestValue) != math.Float64bits(ref.Search.BestValue) {
		t.Errorf("resumed windows %v (%v), uninterrupted %v (%v)",
			resumed.Windows, resumed.Search.BestValue, ref.Windows, ref.Search.BestValue)
	}
	onlyCheckpoint("after the resumed run")
	ck, err := pattern.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done || !numeric.IntVector(ck.Best).Equal(ref.Windows) {
		t.Errorf("final checkpoint done=%v best=%v, want done %v", ck.Done, ck.Best, ref.Windows)
	}
}

// TestDimensionResumeRejectsMismatch: a checkpoint written for different
// options or a different network must not seed a resume.
func TestDimensionResumeRejectsMismatch(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "windim.ckpt")
	if _, err := Dimension(n, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Dimension(n, Options{ResumePath: path, MaxWindow: 32}); err == nil {
		t.Error("resume with different MaxWindow accepted")
	}
	if _, err := Dimension(topo.Canada2Class(25, 25), Options{ResumePath: path}); err == nil {
		t.Error("resume against a different network accepted")
	}
	// The happy path still round-trips.
	if _, err := Dimension(n, Options{ResumePath: path}); err != nil {
		t.Errorf("matching resume rejected: %v", err)
	}
}

// TestDimensionResumeMissingFile: "resume" from nothing is an error, not a
// silent fresh start.
func TestDimensionResumeMissingFile(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "nope.ckpt")
	if _, err := Dimension(n, Options{ResumePath: path}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestDimensionCheckpointExhaustiveRejected: only the pattern search has
// commit points to checkpoint at.
func TestDimensionCheckpointExhaustiveRejected(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "windim.ckpt")
	if _, err := Dimension(n, Options{Search: ExhaustiveSearch, CheckpointPath: path}); err == nil {
		t.Fatal("exhaustive checkpointing accepted")
	}
}

// TestDimensionRobustCheckpointResume: the robust run's checkpoint carries
// the per-scenario health in Aux, its hash covers the scenario set, and a
// killed run resumes to the bit-identical robust windows.
func TestDimensionRobustCheckpointResume(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	ref, err := DimensionRobust(n, scenarios, RobustMinimax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "robust.ckpt")
	interrupted := Options{CheckpointPath: path}
	cancelAfterCommits(1, &interrupted)
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, interrupted); err == nil {
		t.Fatal("cancelled robust run returned nil error")
	}
	// The scenario set is part of the hash: a different set must be
	// rejected.
	if _, err := DimensionRobust(n, twoScenarioSet(0.5), RobustMinimax, Options{ResumePath: path}); err == nil {
		t.Error("resume with a different scenario set accepted")
	}
	// The robust kind is part of the hash too.
	if _, err := DimensionRobust(n, scenarios, RobustWeighted, Options{ResumePath: path}); err == nil {
		t.Error("resume with a different robust criterion accepted")
	}
	// And a robust checkpoint must not seed a nominal Dimension run.
	if _, err := Dimension(n, Options{ResumePath: path}); err == nil {
		t.Error("nominal resume from a robust checkpoint accepted")
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Windows.Equal(ref.Windows) {
		t.Errorf("resumed robust windows %v, uninterrupted %v", res.Windows, ref.Windows)
	}
	if math.Float64bits(res.WorstPower) != math.Float64bits(ref.WorstPower) {
		t.Errorf("resumed worst power %v, uninterrupted %v", res.WorstPower, ref.WorstPower)
	}
}

// TestDimensionRobustResumeRestoresDegradation: a checkpoint whose Aux
// marks a scenario degraded resumes with that scenario still excluded and
// reported, without re-fighting the lost battle.
func TestDimensionRobustResumeRestoresDegradation(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	path := filepath.Join(t.TempDir(), "robust.ckpt")
	interrupted := Options{CheckpointPath: path}
	cancelAfterCommits(1, &interrupted)
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, interrupted); err == nil {
		t.Fatal("cancelled robust run returned nil error")
	}
	// Inject a degradation into the checkpoint's Aux — the editable part a
	// crashed run would have recorded had the scenario died before the kill.
	ck, err := pattern.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	health := newScenarioHealth([]string{scenarios[0].Name, scenarios[1].Name}, 1, 0)
	if err := health.degrade(1, "injected for test"); err != nil {
		t.Fatal(err)
	}
	ck.Aux = health.snapshotAux()
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Index != 1 || res.Degraded[0].Reason != "injected for test" {
		t.Fatalf("degradation not restored: %+v", res.Degraded)
	}
	if res.PerScenario[1] != nil || !math.IsNaN(res.ScenarioPower[1]) {
		t.Errorf("degraded scenario still reported metrics: %+v", res.ScenarioPower)
	}
	if res.WorstScenario != 0 || res.WorstPower <= 0 {
		t.Errorf("active scenario missing from result: worst=%d power=%v", res.WorstScenario, res.WorstPower)
	}
	// A quorum the restored state cannot meet is rejected up front.
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path, MinScenarios: 2}); err == nil {
		t.Error("resume below quorum accepted")
	}
}

// TestModelHashGolden pins modelHash's bytes for three option sets. A
// checkpoint records the hash it was written under, so any change to the
// hashed format turns every existing checkpoint into an ErrResume (and
// windimd silently restarts those jobs' searches from scratch).
func TestModelHashGolden(t *testing.T) {
	n := topo.Canada4Class(6, 6, 6, 12)
	scenarios := []Scenario{
		{Name: "nominal"},
		{Name: "ew-half", CapacityScale: []float64{0.5, 1, 1, 1, 1, 1, 1}, RateScale: []float64{1.2, 1, 1, 1}, Weight: 2},
	}
	for _, c := range []struct {
		name      string
		opts      Options
		scenarios []Scenario
		robust    string
		want      string
	}{
		{"canada4", Options{}, nil, "", "197959603208416f26a55da19d94396ba9cd198965b149132fde52579fb75a37"},
		{"canada4-exact-engine", Options{Evaluator: EvalExactMVA, ExactEngine: true}, nil, "", "ac9507be3c9148c3fc3b44dbcdea7b41def859db0ea174cd1b8fd2ab8336b7cb"},
		{"canada4-robust", Options{}, scenarios, RobustMinimax.String(), "f154ace19d8fb53a5582eeabf91555176e643ea9e13472cc72e5fe5cea551fa0"},
	} {
		got, err := modelHash(n, c.opts, c.scenarios, c.robust)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: modelHash = %s, want %s", c.name, got, c.want)
		}
	}
}
