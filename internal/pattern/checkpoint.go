package pattern

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CheckpointVersion is the format version this package writes; Load
// rejects files written by a different (future) version rather than
// guessing at their semantics.
const CheckpointVersion = 1

// checkpointKind tags the file so other tools (and humans) can tell what
// produced it.
const checkpointKind = "pattern-search"

// deltaKind tags the append-only sidecar holding incremental records
// between full snapshots; deltaSuffix is appended to CheckpointOptions.Path
// to name it.
const (
	deltaKind   = "pattern-search-delta"
	deltaSuffix = ".delta"
)

// JSONFloat is a float64 whose JSON form round-trips bit-exactly,
// including the non-finite values encoding/json rejects: finite values use
// the shortest decimal that parses back to the same bits, ±Inf and NaN are
// encoded as the strings "+Inf", "-Inf" and "NaN". The memo cache stores
// +Inf for infeasible candidates, so checkpoints need the full range.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		case "NaN":
			*f = JSONFloat(math.NaN())
		default:
			return fmt.Errorf("pattern: invalid float string %q in checkpoint", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("pattern: invalid float %q in checkpoint", b)
	}
	*f = JSONFloat(v)
	return nil
}

// Checkpoint is the durable state of a pattern search: a versioned,
// self-describing snapshot written atomically on a commit cadence and fed
// back through Options.Resume after a crash, kill or deadline.
//
// The load-bearing field is Visited — the full memo cache (FLOC/FSTR table)
// at snapshot time. Resume does not fast-forward to Best: it preloads the
// cache and lets the search REPLAY from its start point. Every decision of
// the replayed trajectory is answered from the cache (no objective calls),
// so the search reaches the interruption frontier in memo-lookup time and
// then continues exactly as the uninterrupted run would have: warm-start
// engines re-commit along the identical base-point trajectory, rebuilding
// the exact solver seeds the frontier evaluations would have seen. The
// final Best/BestValue/BasePoints are therefore bit-identical to the
// uninterrupted run at any worker count. Best, Step and the counters are
// recorded for inspection and sanity checks, not for control flow.
type Checkpoint struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// ModelHash identifies the (network, options) pair the cached values
	// were computed for; resuming against a different model is rejected by
	// core before any stale value can poison a search.
	ModelHash string `json:"model_hash,omitempty"`
	// Dim is the dimension of the search lattice; every vector field and
	// every Visited key must agree with it.
	Dim int `json:"dim"`
	// Start is the (clamped) start point the recorded trajectory grew from.
	Start []int `json:"start,omitempty"`
	// Best/BestValue are the base point and objective at snapshot time.
	Best      []int     `json:"best,omitempty"`
	BestValue JSONFloat `json:"best_value,omitempty"`
	// Step and Halvings are the pattern-search step state at snapshot time.
	Step     []int `json:"step,omitempty"`
	Halvings int   `json:"halvings,omitempty"`
	// Commits and Evaluations count committed base points and real
	// objective calls of the run that wrote the snapshot.
	Commits     int `json:"commits,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`
	// Done marks a checkpoint written at normal termination: resuming from
	// it replays to the final answer without any objective calls.
	Done bool `json:"done,omitempty"`
	// Visited is the memoised objective cache, keyed by
	// numeric.IntVector.Key() ("w1,w2,...").
	Visited map[string]JSONFloat `json:"visited"`
	// Aux carries caller state verbatim (core stores per-scenario
	// degradation progress for DimensionRobust here).
	Aux json.RawMessage `json:"aux,omitempty"`
}

// CheckpointOptions configures durable checkpointing of a Search run.
type CheckpointOptions struct {
	// Path is the checkpoint file; writes go to a temp file in the same
	// directory followed by an atomic rename, so a reader (or a resumed
	// run) never observes a partially written checkpoint.
	Path string
	// Every is the commit cadence: a snapshot is written every Every-th
	// committed base point (<= 0 means every commit). Termination and
	// cancellation always write a final snapshot regardless of cadence.
	Every int
	// ModelHash is stamped into every snapshot (see Checkpoint.ModelHash).
	ModelHash string
	// FullEvery spaces FULL snapshots among the durable writes: every
	// FullEvery-th durable write re-serialises the whole state; the writes
	// between append one compact delta record — only the memo-cache entries
	// learned since the previous durable write — to the sidecar file
	// Path+".delta". A full snapshot costs O(|Visited|) per write, so a
	// per-commit cadence (Every = 1) on a long search rewrites an
	// ever-growing cache every commit; with deltas the same cadence costs
	// O(new entries), which is near-free. LoadCheckpoint replays snapshot +
	// sidecar transparently, so resume semantics are unchanged; a torn
	// final record (crash mid-append) is dropped, losing at most that one
	// delta. Termination and cancellation always write a full snapshot.
	// <= 1 means every durable write is a full snapshot and no sidecar is
	// kept (the historical behaviour).
	FullEvery int
	// Aux, when non-nil, is called at snapshot time (serially, never
	// concurrent with objective evaluations) to capture caller state.
	Aux func() json.RawMessage
}

// deltaHeader is the first line of a delta sidecar. BaseCommits ties the
// records to the full snapshot they extend: a sidecar whose BaseCommits
// does not equal the snapshot's Commits is stale (e.g. a crash landed
// between a snapshot rename and the sidecar reset) and is ignored whole.
type deltaHeader struct {
	Version     int    `json:"version"`
	Kind        string `json:"kind"`
	ModelHash   string `json:"model_hash,omitempty"`
	Dim         int    `json:"dim"`
	BaseCommits int    `json:"base_commits"`
}

// deltaRecord is one appended line: the state advance of a single durable
// write. Visited carries only the cache entries added since the previous
// durable write; the scalar fields mirror the snapshot's for inspection.
type deltaRecord struct {
	Commit      int                  `json:"commit"`
	Best        []int                `json:"best,omitempty"`
	BestValue   JSONFloat            `json:"best_value,omitempty"`
	Step        []int                `json:"step,omitempty"`
	Halvings    int                  `json:"halvings,omitempty"`
	Evaluations int                  `json:"evaluations,omitempty"`
	Visited     map[string]JSONFloat `json:"visited,omitempty"`
}

// LoadCheckpoint reads and validates a checkpoint file, then folds in any
// delta sidecar (path+".delta") written since the snapshot: records are
// replayed in append order, so the returned Checkpoint is equivalent to
// the full snapshot a FullEvery = 1 run would have written at the last
// durable write. A stale sidecar (left by a crash, or belonging to an
// older snapshot) is detected by its header and ignored.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := ParseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("pattern: checkpoint %s: %w", path, err)
	}
	if err := cp.mergeDeltas(path + deltaSuffix); err != nil {
		return nil, fmt.Errorf("pattern: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// mergeDeltas applies the sidecar at path to cp. A missing sidecar, a torn
// header, or a header that does not match cp (different model hash or base
// commit count — a stale file) leave cp untouched. A torn FINAL record is
// dropped: the append protocol fsyncs line by line, so only the last line
// can be incomplete; corruption anywhere earlier is a real error.
func (cp *Checkpoint) mergeDeltas(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("reading delta sidecar: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	// A trailing newline (the normal case) yields one empty final element.
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil
	}
	var hdr deltaHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		// Crash mid-header-write: the sidecar carries nothing yet.
		return nil
	}
	if hdr.Kind != deltaKind || hdr.Version != CheckpointVersion ||
		hdr.ModelHash != cp.ModelHash || hdr.BaseCommits != cp.Commits {
		return nil
	}
	if hdr.Dim != cp.Dim {
		return fmt.Errorf("delta sidecar dimension %d does not match snapshot dimension %d", hdr.Dim, cp.Dim)
	}
	if cp.Visited == nil {
		cp.Visited = make(map[string]JSONFloat)
	}
	for i, line := range lines[1:] {
		var rec deltaRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if i == len(lines)-2 {
				return nil // torn final append — lose that one delta
			}
			return fmt.Errorf("delta record %d corrupt: %w", i+1, err)
		}
		for _, v := range [][]int{rec.Best, rec.Step} {
			if v != nil && len(v) != cp.Dim {
				return fmt.Errorf("delta record %d vector length %d does not match dimension %d", i+1, len(v), cp.Dim)
			}
		}
		for k, v := range rec.Visited {
			if !ValidPointKey(k, cp.Dim) {
				return fmt.Errorf("delta record %d visited key %q is not a %d-dimensional lattice point", i+1, k, cp.Dim)
			}
			cp.Visited[k] = v
		}
		if rec.Commit > cp.Commits {
			cp.Commits = rec.Commit
			if rec.Best != nil {
				cp.Best = rec.Best
			}
			cp.BestValue = rec.BestValue
			if rec.Step != nil {
				cp.Step = rec.Step
			}
			cp.Halvings = rec.Halvings
			cp.Evaluations = rec.Evaluations
		}
	}
	return nil
}

// ParseCheckpoint decodes a checkpoint and validates its internal
// consistency (version, kind, dimensions, key syntax). Malformed input of
// any shape returns an error, never a panic: checkpoints may come from
// disk written by older binaries or truncated by failed copies.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("parsing checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("unsupported checkpoint version %d (this binary writes %d)", cp.Version, CheckpointVersion)
	}
	if cp.Kind != checkpointKind {
		return nil, fmt.Errorf("checkpoint kind %q is not %q", cp.Kind, checkpointKind)
	}
	if cp.Dim < 1 {
		return nil, fmt.Errorf("checkpoint dimension %d; need >= 1", cp.Dim)
	}
	for _, v := range [][]int{cp.Start, cp.Best, cp.Step} {
		if v != nil && len(v) != cp.Dim {
			return nil, fmt.Errorf("checkpoint vector length %d does not match dimension %d", len(v), cp.Dim)
		}
	}
	for k := range cp.Visited {
		if !ValidPointKey(k, cp.Dim) {
			return nil, fmt.Errorf("checkpoint visited key %q is not a %d-dimensional lattice point", k, cp.Dim)
		}
	}
	return &cp, nil
}

// ValidPointKey reports whether k is a well-formed IntVector.Key() of the
// given dimension. Exported for the other durable wire formats built on
// point keys (the sharded search's slab checkpoints in internal/shard),
// so their parse hardening matches the checkpoint loader's.
func ValidPointKey(k string, dim int) bool {
	parts := strings.Split(k, ",")
	if len(parts) != dim {
		return false
	}
	for _, p := range parts {
		if _, err := strconv.Atoi(p); err != nil {
			return false
		}
	}
	return true
}

// Save writes the checkpoint atomically: marshal, write to a temp file in
// the destination directory, fsync, rename. A crash at any instant leaves
// either the previous complete checkpoint or the new complete one on disk
// — never a torn file.
func (cp *Checkpoint) Save(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("pattern: marshal checkpoint: %w", err)
	}
	return WriteDurable(path, data)
}

// WriteDurable publishes data at path atomically and durably: write to a
// temp file in the destination directory, fsync, rename, fsync the
// directory. A crash at any instant leaves either the previous complete
// file or the new complete one on disk — never a torn write. Shared by
// every durable artifact in the repository that is replaced wholesale
// (checkpoints here, the sharded search's manifests, leases and slab
// results, and the windimd job journal's records).
func WriteDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("pattern: durable temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("pattern: durable write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("pattern: durable sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("pattern: durable close: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("pattern: durable publish: %w", err)
	}
	// The rename is durable only once the directory entry is: without the
	// directory sync a crash immediately after the write can roll the file
	// back to the previous version — or, for a first write, to nothing.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("pattern: sync durable directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making previously renamed or created entries
// in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot builds the current checkpoint state. Called only from commit
// points and termination, where the pass barrier guarantees no objective
// evaluation (and hence no cache mutation) is in flight.
func (s *searcher) snapshot(done bool) *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Kind:        checkpointKind,
		ModelHash:   s.ckpt.ModelHash,
		Dim:         len(s.start),
		Start:       append([]int(nil), s.start...),
		Best:        append([]int(nil), s.base...),
		BestValue:   JSONFloat(s.fBase),
		Step:        append([]int(nil), s.step...),
		Halvings:    s.halvings,
		Commits:     s.commits,
		Evaluations: s.result.Evaluations,
		Done:        done,
		Visited:     make(map[string]JSONFloat, len(s.cache)),
	}
	for k, v := range s.cache {
		cp.Visited[k] = JSONFloat(v)
	}
	if s.ckpt.Aux != nil {
		cp.Aux = s.ckpt.Aux()
	}
	return cp
}

// writeCheckpoint persists the current state when checkpointing is
// configured; final (termination/cancellation) writes ignore the cadence
// and always produce a full snapshot. Between full snapshots (FullEvery >
// 1), durable writes append delta records to the sidecar instead of
// re-serialising the whole memo cache.
func (s *searcher) writeCheckpoint(final bool) error {
	if s.ckpt == nil {
		return nil
	}
	every := s.ckpt.Every
	if every <= 0 {
		every = 1
	}
	if !final && s.commits%every != 0 {
		return nil
	}
	full := final || s.ckpt.FullEvery <= 1 || s.durables%s.ckpt.FullEvery == 0 || s.delta == nil
	s.durables++
	if full {
		return s.writeFull(final)
	}
	return s.appendDelta()
}

// writeFull writes a full snapshot and, in delta mode, resets the sidecar
// to extend the new snapshot (or removes it after the final write — a
// finished checkpoint needs no deltas). The snapshot rename lands before
// the sidecar reset, so a crash between the two leaves a sidecar whose
// BaseCommits no longer matches — mergeDeltas ignores it.
func (s *searcher) writeFull(final bool) error {
	if err := s.snapshot(final && s.doneOK).Save(s.ckpt.Path); err != nil {
		return err
	}
	if s.pending == nil {
		return nil
	}
	clear(s.pending)
	if final {
		s.closeDelta()
		os.Remove(s.ckpt.Path + deltaSuffix) // best-effort: a stale leftover is ignored at load
		return nil
	}
	return s.resetDelta()
}

// resetDelta truncates (or creates) the sidecar and writes its header,
// keeping the file handle open for subsequent appends.
func (s *searcher) resetDelta() error {
	s.closeDelta()
	f, err := os.OpenFile(s.ckpt.Path+deltaSuffix, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("pattern: delta sidecar: %w", err)
	}
	hdr := deltaHeader{
		Version:     CheckpointVersion,
		Kind:        deltaKind,
		ModelHash:   s.ckpt.ModelHash,
		Dim:         len(s.start),
		BaseCommits: s.commits,
	}
	if err := appendLine(f, hdr); err != nil {
		f.Close()
		return fmt.Errorf("pattern: delta sidecar header: %w", err)
	}
	// Appends fsync the file, but a freshly created sidecar also needs its
	// directory entry made durable, or a crash loses the whole file.
	if err := syncDir(filepath.Dir(s.ckpt.Path)); err != nil {
		f.Close()
		return fmt.Errorf("pattern: sync delta sidecar directory: %w", err)
	}
	s.delta = f
	return nil
}

// appendDelta appends one record carrying the cache entries learned since
// the previous durable write. A write with nothing new (every probe of the
// pass was a cache hit — the steady state of a resume replay) is skipped
// entirely: Visited is the load-bearing state, and the scalar fields are
// advisory.
func (s *searcher) appendDelta() error {
	if len(s.pending) == 0 {
		return nil
	}
	rec := deltaRecord{
		Commit:      s.commits,
		Best:        append([]int(nil), s.base...),
		BestValue:   JSONFloat(s.fBase),
		Step:        append([]int(nil), s.step...),
		Halvings:    s.halvings,
		Evaluations: s.result.Evaluations,
		Visited:     s.pending,
	}
	if err := appendLine(s.delta, rec); err != nil {
		return fmt.Errorf("pattern: delta append: %w", err)
	}
	clear(s.pending)
	return nil
}

// appendLine marshals v, appends it to f as one newline-terminated record
// and fsyncs, so every completed append survives a crash and only the
// in-flight final line can ever be torn.
func appendLine(f *os.File, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// closeDelta releases the sidecar handle; safe to call at any time.
func (s *searcher) closeDelta() {
	if s.delta != nil {
		s.delta.Close()
		s.delta = nil
	}
}
