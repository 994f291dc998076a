package pattern

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/durable"
	"repro/internal/numeric"
)

var errKill = errors.New("simulated crash")

// killAfter builds an objective that fails hard after n calls — unlike
// cancellation, a hard failure writes NO final record, so whatever the
// cadence left on disk is all a resume gets: exactly the crash scenario
// the checkpoint log exists for.
func killAfter(n int) Objective {
	calls := 0
	return func(x numeric.IntVector) (float64, error) {
		calls++
		if calls > n {
			return 0, errKill
		}
		return quad2(x)
	}
}

// logOptions is the per-commit durable cadence windimd runs with: one
// snapshot, then one appended record per commit.
func logOptions(path string) Options {
	return Options{
		InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3,
		Checkpoint: &CheckpointOptions{Path: path, Every: 1, ModelHash: "h"},
	}
}

// resumeMatches resumes from ck and requires the uninterrupted run's Best
// and bit-identical BestValue.
func resumeMatches(t *testing.T, desc string, ck *Checkpoint, workers int, ref *Result) *Result {
	t.Helper()
	resumed := Options{InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3, Workers: workers, Resume: ck}
	res, err := Search(quad2, numeric.IntVector{2, 2}, resumed)
	if err != nil {
		t.Fatalf("%s: resume: %v", desc, err)
	}
	if !res.Best.Equal(ref.Best) || math.Float64bits(res.BestValue) != math.Float64bits(ref.BestValue) {
		t.Errorf("%s: resumed best %v (%v) vs uninterrupted %v (%v)",
			desc, res.Best, res.BestValue, ref.Best, ref.BestValue)
	}
	return res
}

func uninterrupted(t *testing.T) *Result {
	t.Helper()
	ref, err := Search(quad2, numeric.IntVector{2, 2}, Options{InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestSearchDeltaResume: crash the search at several depths with
// per-commit checkpointing, resume from the log, and land on the
// bit-identical result of the uninterrupted run at any worker count.
func TestSearchDeltaResume(t *testing.T) {
	ref := uninterrupted(t)
	for _, killAt := range []int{4, 7, 11, 15} {
		for _, workers := range []int{1, 8} {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			if _, err := Search(killAfter(killAt), numeric.IntVector{2, 2}, logOptions(path)); !errors.Is(err, errKill) {
				t.Fatalf("killAt=%d: want simulated crash, got %v", killAt, err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("killAt=%d: %v", killAt, err)
			}
			desc := "killAt=" + strconv.Itoa(killAt) + " workers=" + strconv.Itoa(workers)
			res := resumeMatches(t, desc, ck, workers, ref)
			if res.Evaluations >= ref.Evaluations {
				t.Errorf("%s: resume made %d objective calls, uninterrupted %d — cache not replayed",
					desc, res.Evaluations, ref.Evaluations)
			}
		}
	}
}

// TestCrashResumeAuxIsCurrent: crash a per-commit checkpointed search at
// every depth. The crash is an objective error, so no final write
// happens and the file holds only what the cadence wrote. Aux encodes the
// commit count at the time of each write, so the loaded Aux must encode
// the loaded Commits: the caller state resumes exactly as current as the
// memo cache, never from an older write.
func TestCrashResumeAuxIsCurrent(t *testing.T) {
	ref := uninterrupted(t)
	if len(ref.BasePoints) < 3 {
		t.Fatalf("test needs a longer trajectory, got %d commits", len(ref.BasePoints))
	}
	// killAfter(0) would fail the start point, before the first commit.
	for killAt := 1; killAt < ref.Evaluations; killAt++ {
		path := filepath.Join(t.TempDir(), "search.ckpt")
		commits := 0
		opts := logOptions(path)
		opts.OnCommit = func(numeric.IntVector, float64) { commits++ }
		opts.Checkpoint.Aux = func() json.RawMessage { return json.RawMessage(strconv.Itoa(commits)) }
		if _, err := Search(killAfter(killAt), numeric.IntVector{2, 2}, opts); !errors.Is(err, errKill) {
			t.Fatalf("killAt=%d: want simulated crash, got %v", killAt, err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("killAt=%d: %v", killAt, err)
		}
		var aux int
		if err := json.Unmarshal(ck.Aux, &aux); err != nil {
			t.Fatalf("killAt=%d: aux %q: %v", killAt, ck.Aux, err)
		}
		if aux != ck.Commits {
			t.Errorf("killAt=%d: checkpoint at commit %d carries the Aux of commit %d", killAt, ck.Commits, aux)
		}
	}
}

// TestCrashStatesResume feeds every state a crash during the last append
// can leave — the record cut at every byte, and cut then NUL-padded to
// its full length — into resume: each must load and replay to the
// uninterrupted run's answer.
func TestCrashStatesResume(t *testing.T) {
	ref := uninterrupted(t)
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := Search(killAfter(15), numeric.IntVector{2, 2}, logOptions(path)); !errors.Is(err, errKill) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := durable.Lines(data)
	if len(lines) < 2 {
		t.Fatalf("crashed log holds %d lines; need a record after the snapshot", len(lines))
	}
	recLen := len(lines[len(lines)-1]) + 1
	prefix := data[:len(data)-recLen]
	for cut := 0; cut < recLen; cut++ {
		torn := append(append([]byte(nil), prefix...), data[len(prefix):len(prefix)+cut]...)
		padded := append(append([]byte(nil), torn...), make([]byte, recLen-cut)...)
		for _, state := range [][]byte{torn, padded} {
			ck, err := ParseCheckpoint(state)
			if err != nil {
				t.Fatalf("cut %d of %d: %v", cut, recLen, err)
			}
			resumeMatches(t, "cut "+strconv.Itoa(cut), ck, 1, ref)
		}
	}
}

// TestDeltaTornFinalLine: a crash mid-append leaves a torn last line; the
// loader drops it (losing at most that one write) and resume still works.
// A complete line that does not decode is corruption, not a crash state.
func TestDeltaTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := Search(killAfter(11), numeric.IntVector{2, 2}, logOptions(path)); !errors.Is(err, errKill) {
		t.Fatal("want simulated crash")
	}
	clean, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"commit":99,"visited":{"5,`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if len(torn.Visited) != len(clean.Visited) || torn.Commits != clean.Commits {
		t.Errorf("torn load %d entries / %d commits, clean %d / %d",
			len(torn.Visited), torn.Commits, len(clean.Visited), clean.Commits)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := durable.Lines(data)
	corrupt := string(lines[0]) + "\ngarbage\n" + `{"commit":3}` + "\n"
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// TestDeltaWritesAreCheap: with a per-commit cadence each memo entry
// appears in exactly one line of the log — durable writes cost the new
// entries, never the whole cache — and a finished run leaves exactly one
// file, marked done.
func TestDeltaWritesAreCheap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ckpt")
	opts := Options{
		// Unit steps from far away: the pattern phase crawls, committing
		// dozens of base points on the way to (7, 12).
		InitialStep: numeric.IntVector{1, 1}, MaxHalvings: 2,
		Checkpoint: &CheckpointOptions{Path: path, Every: 1},
	}
	res, err := Search(quad2, numeric.IntVector{200, 260}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if commits := len(res.BasePoints); commits < 8 {
		t.Fatalf("test needs a longer trajectory, got %d commits", commits)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, torn := durable.Lines(data)
	if torn {
		t.Fatal("finished log ends in a torn line")
	}
	seen := make(map[string]int)
	for i, line := range lines {
		var rec struct {
			Visited map[string]JSONFloat `json:"visited"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for k := range rec.Visited {
			seen[k]++
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("memo entry %s written %d times", k, n)
		}
	}
	if len(seen) != res.Evaluations {
		t.Errorf("log holds %d memo entries, the run evaluated %d points", len(seen), res.Evaluations)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("finished run left %d files, want only the checkpoint", len(entries))
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done || !numeric.IntVector(ck.Best).Equal(res.Best) {
		t.Errorf("final checkpoint done=%v best=%v, want done best %v", ck.Done, ck.Best, res.Best)
	}
}

// TestDeltaRoundTripValues: non-finite cache values survive an appended
// record (records reuse the JSONFloat codec).
func TestDeltaRoundTripValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	calls := 0
	spiky := func(x numeric.IntVector) (float64, error) {
		calls++
		if calls > 14 {
			return 0, errKill
		}
		if x[0] == 6 && x[1] == 2 {
			// The first exploratory probe from (2,2) with step (4,4):
			// guaranteed evaluated after the start point's snapshot, and
			// cached as +Inf in an appended record.
			return math.Inf(1), nil
		}
		return quad2(x)
	}
	if _, err := Search(spiky, numeric.IntVector{2, 2}, logOptions(path)); !errors.Is(err, errKill) {
		t.Fatal("want simulated crash")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ck.Visited["6,2"]
	if !ok {
		t.Skipf("trajectory never visited the spike point; visited %d points", len(ck.Visited))
	}
	if !math.IsInf(float64(v), 1) {
		t.Errorf("infeasible value round-tripped to %v", float64(v))
	}
}
