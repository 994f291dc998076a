package pattern

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/durable"
)

// CheckpointVersion is the format version this package writes; Load
// rejects files written by a different version rather than guessing at
// their semantics. Version 2 is the single-file log: a snapshot line
// followed by appended records.
const CheckpointVersion = 2

// checkpointKind tags the file so other tools (and humans) can tell what
// produced it.
const checkpointKind = "pattern-search"

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
// self-describing snapshot fed back through Options.Resume after a crash,
// kill or deadline. On disk it is one append-only log (internal/durable):
// the first line is a Checkpoint, each later line a deltaRecord of what one
// durable write added; ParseCheckpoint folds the log back into one
// Checkpoint.
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
	// Path is the checkpoint file. The first durable write publishes a
	// snapshot there atomically (temp file + rename) and later writes
	// append to it, fsynced one line at a time, so a reader (or a resumed
	// run) never observes worse than a torn final record, which the loader
	// drops.
	Path string
	// Every is the commit cadence: a durable write happens every Every-th
	// committed base point (<= 0 means every commit). Termination and
	// cancellation always write regardless of cadence.
	Every int
	// ModelHash is stamped into the snapshot (see Checkpoint.ModelHash).
	ModelHash string
	// Aux, when non-nil, is called at every cadence point and final write
	// (serially, never concurrent with objective evaluations) to capture
	// caller state; every record written carries its result whole.
	Aux func() json.RawMessage
}

// deltaRecord is one appended line: the state advance of a single durable
// write. Visited carries only the cache entries learned since the previous
// durable write, so each memo entry is written exactly once; the scalar
// fields mirror the snapshot's for inspection. Aux is repeated whole in
// every record, so the newest intact record always carries the caller
// state that matches the cache it completes.
type deltaRecord struct {
	Commit      int                  `json:"commit"`
	Best        []int                `json:"best,omitempty"`
	BestValue   JSONFloat            `json:"best_value,omitempty"`
	Step        []int                `json:"step,omitempty"`
	Halvings    int                  `json:"halvings,omitempty"`
	Evaluations int                  `json:"evaluations,omitempty"`
	Done        bool                 `json:"done,omitempty"`
	Visited     map[string]JSONFloat `json:"visited,omitempty"`
	Aux         json.RawMessage      `json:"aux,omitempty"`
}

// LoadCheckpoint reads a checkpoint file and folds its log into one
// Checkpoint (see ParseCheckpoint).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := ParseCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("pattern: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// ParseCheckpoint decodes a checkpoint log and validates its internal
// consistency (version, kind, dimensions, key syntax): the snapshot line,
// then each appended record in order — its cache entries merged, its
// scalars and Aux replacing the previous ones. A torn final line (crash
// mid-append) is dropped, losing at most that one write; a complete line
// that does not decode is corruption and an error. Malformed input of any
// shape returns an error, never a panic: checkpoints may come from disk
// written by older binaries or truncated by failed copies.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	lines, _ := durable.Lines(data)
	if len(lines) == 0 {
		return nil, errors.New("checkpoint has no complete snapshot line")
	}
	var cp Checkpoint
	if err := json.Unmarshal(lines[0], &cp); err != nil {
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
	if err := cp.checkShape(cp.Visited, cp.Start, cp.Best, cp.Step); err != nil {
		return nil, fmt.Errorf("checkpoint snapshot: %w", err)
	}
	if cp.Visited == nil {
		cp.Visited = make(map[string]JSONFloat)
	}
	for i, line := range lines[1:] {
		var rec deltaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("checkpoint record %d corrupt: %w", i+1, err)
		}
		if err := cp.checkShape(rec.Visited, rec.Best, rec.Step); err != nil {
			return nil, fmt.Errorf("checkpoint record %d: %w", i+1, err)
		}
		maps.Copy(cp.Visited, rec.Visited)
		if rec.Best != nil {
			cp.Best = rec.Best
		}
		if rec.Step != nil {
			cp.Step = rec.Step
		}
		cp.Commits, cp.BestValue, cp.Halvings = rec.Commit, rec.BestValue, rec.Halvings
		cp.Evaluations, cp.Done, cp.Aux = rec.Evaluations, rec.Done, rec.Aux
	}
	return &cp, nil
}

// checkShape verifies that every vector has the checkpoint's dimension and
// every cache key is a lattice point of it.
func (cp *Checkpoint) checkShape(visited map[string]JSONFloat, vecs ...[]int) error {
	for _, v := range vecs {
		if v != nil && len(v) != cp.Dim {
			return fmt.Errorf("vector length %d does not match dimension %d", len(v), cp.Dim)
		}
	}
	for k := range visited {
		if !ValidPointKey(k, cp.Dim) {
			return fmt.Errorf("visited key %q is not a %d-dimensional lattice point", k, cp.Dim)
		}
	}
	return nil
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

// Save writes cp as a complete one-line checkpoint log, atomically: a
// crash at any instant leaves either the previous file or the new one on
// disk — never a torn file.
func (cp *Checkpoint) Save(path string) error {
	l, err := durable.Create(path, cp)
	if err != nil {
		return fmt.Errorf("pattern: save checkpoint: %w", err)
	}
	return l.Close()
}

// snapshot builds the current checkpoint state. Called only from commit
// points and termination, where the pass barrier guarantees no objective
// evaluation (and hence no cache mutation) is in flight.
func (s *searcher) snapshot(done bool, aux json.RawMessage) *Checkpoint {
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
		Aux:         aux,
	}
	for k, v := range s.cache {
		cp.Visited[k] = JSONFloat(v)
	}
	return cp
}

// writeCheckpoint persists the current state when checkpointing is
// configured: on the commit cadence, and always for a final (termination
// or cancellation) write. The first durable write of a run publishes a
// snapshot of the whole cache — for a resumed run, preloaded entries
// included, so the new file never depends on the one it resumed from.
// Every later write appends one record with the entries learned since the
// previous write, the scalars and Aux; a non-final write with no new
// entries and an unchanged Aux has nothing to record and is skipped.
func (s *searcher) writeCheckpoint(final bool) error {
	if s.ckpt == nil {
		return nil
	}
	if !final && s.commits%max(s.ckpt.Every, 1) != 0 {
		return nil
	}
	var aux json.RawMessage
	if s.ckpt.Aux != nil {
		aux = s.ckpt.Aux()
	}
	done := final && s.doneOK
	if s.log == nil {
		l, err := durable.Create(s.ckpt.Path, s.snapshot(done, aux))
		if err != nil {
			return fmt.Errorf("pattern: checkpoint: %w", err)
		}
		s.log = l
	} else {
		if !final && len(s.pending) == 0 && bytes.Equal(aux, s.aux) {
			return nil
		}
		rec := deltaRecord{
			Commit:      s.commits,
			Best:        s.base,
			BestValue:   JSONFloat(s.fBase),
			Step:        s.step,
			Halvings:    s.halvings,
			Evaluations: s.result.Evaluations,
			Done:        done,
			Visited:     s.pending,
			Aux:         aux,
		}
		if err := s.log.Append(rec); err != nil {
			return fmt.Errorf("pattern: checkpoint: %w", err)
		}
	}
	clear(s.pending)
	s.aux = aux
	return nil
}
