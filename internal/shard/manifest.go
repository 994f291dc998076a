// Package shard implements the fault-tolerant sharded exhaustive search:
// a coordinator slab-partitions the window box along one class axis,
// launches worker processes over a fsynced spool directory, and merges
// the per-slab optima into a result bit-identical to the single-process
// exhaustive run.
//
// Wire formats. Coordinator and workers communicate exclusively through
// durable files in the spool directory:
//
//   - manifest.json — the search definition (network spec, evaluator,
//     objective, box, axis, slab partition), written once with
//     durable.Replace. Its SHA-256 is the manifest
//     hash stamped into every other artifact, so a worker can never
//     apply a stale slab assignment to a different search.
//   - slab<k>.res — one slab's final optimum, written durably by the
//     worker that finished it. The coordinator validates it against the
//     manifest before merging; an unparsable or mismatched file is
//     quarantined (renamed aside) and the slab re-run.
//   - slab<k>.ckpt — the slab's checkpoint, a durable.Log: header line
//     plus one cumulative record per completed stride. A relaunched
//     worker resumes from the last intact record; a torn final line
//     (crash mid-append) loses at most one stride.
//   - slab<k>.hb — the worker's progress heartbeat (current stride).
//     Advisory, not fsynced: the coordinator reassigns a slab whose
//     heartbeat has not advanced within the slab deadline.
//
// Merge determinism. Within a slab the exhaustive scan resolves ties to
// the earliest lattice point, and the lattice order restricted to a
// sub-box is the global lexicographic order, so merging slab optima by
// (value, then lexicographically smallest window vector) reproduces the
// single-process tie-break exactly. Exhaustive scans never commit warm
// starts, so every candidate value is a pure function of the candidate —
// which makes the per-slab optima, and therefore the merged optimum,
// bit-identical across any partition.
package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/pattern"
)

// FormatVersion is the wire-format version of every spool artifact;
// parsers reject files written by a different (past or future) version
// rather than guessing at their semantics. Version 2 added lease
// fencing: slab<k>.lease files and the fencing epoch stamped into every
// checkpoint record and slab result.
const FormatVersion = 2

const (
	manifestKind = "shard-manifest"
	resultKind   = "shard-slab-result"
	ckptKind     = "shard-slab-checkpoint"
)

// Size caps for the durable artifacts; anything larger is rejected as
// corrupt before json sees it.
const (
	maxManifestBytes = 1 << 20
	maxResultBytes   = 1 << 16
	maxCkptBytes     = 1 << 24
)

// Spool file naming.
const manifestName = "manifest.json"

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// ManifestPath returns the manifest file of a spool directory. Its
// existence is the resumability signal: a spool holding a manifest has
// a planned (possibly partial) run that Run will resume rather than
// replan.
func ManifestPath(dir string) string { return manifestPath(dir) }
func resultPath(dir string, slab int) string {
	return filepath.Join(dir, fmt.Sprintf("slab%d.res", slab))
}
func ckptPath(dir string, slab int) string {
	return filepath.Join(dir, fmt.Sprintf("slab%d.ckpt", slab))
}
func hbPath(dir string, slab int) string {
	return filepath.Join(dir, fmt.Sprintf("slab%d.hb", slab))
}
func faultMarkerPath(dir string, slab int, kind string) string {
	return filepath.Join(dir, fmt.Sprintf("slab%d.fault-%s.fired", slab, kind))
}

// SlabRange is one slab's closed interval of values along the partition
// axis: windows with Lo[axis] <= w[axis] and From <= w[axis] <= To.
type SlabRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Manifest is the search definition shared by coordinator and workers.
// It captures everything a worker needs to evaluate candidates exactly
// as the single-process run would: the network spec and the
// reproducibility-safe evaluation options. Options that trade
// reproducibility (EvalTimeout) or are not serialised (BufferLimits, MVA
// tuning) are rejected by the coordinator instead of silently diverging.
type Manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Network is the netmodel JSON spec of the network being dimensioned.
	Network json.RawMessage `json:"network"`
	// Evaluator and Objective are the CLI-canonical names (sigma,
	// schweitzer, linearizer, exact; power, min-class, sum-class).
	Evaluator   string `json:"evaluator"`
	Objective   string `json:"objective"`
	ExactEngine bool   `json:"exact_engine,omitempty"`
	NoFallback  bool   `json:"no_fallback,omitempty"`
	// Workers is the per-worker search parallelism (goroutines inside one
	// slab scan), not the process count.
	Workers int `json:"workers,omitempty"`
	// Lo and Hi are the closed global search box, one entry per class.
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
	// Axis is the class index the box is partitioned along.
	Axis int `json:"axis"`
	// Slabs partitions [Lo[Axis], Hi[Axis]] into contiguous, ascending,
	// non-overlapping ranges — exactly covering the interval, so the
	// union of slab boxes is the global box and no candidate is scanned
	// twice.
	Slabs []SlabRange `json:"slabs"`
}

// ParseManifest decodes and validates a manifest. Unknown fields, bad
// versions, malformed boxes and non-partitioning slab sets are all
// rejected: a worker must never run against a half-understood search
// definition.
func ParseManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("shard: manifest exceeds %d bytes", maxManifestBytes)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("shard: trailing data after manifest")
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("shard: manifest version %d, want %d", m.Version, FormatVersion)
	}
	if m.Kind != manifestKind {
		return nil, fmt.Errorf("shard: manifest kind %q, want %q", m.Kind, manifestKind)
	}
	if len(m.Network) == 0 || string(m.Network) == "null" {
		return nil, fmt.Errorf("shard: manifest has no network spec")
	}
	if _, err := parseEvaluator(m.Evaluator); err != nil {
		return nil, err
	}
	if _, err := parseObjective(m.Objective); err != nil {
		return nil, err
	}
	dim := len(m.Lo)
	if dim == 0 || len(m.Hi) != dim {
		return nil, fmt.Errorf("shard: manifest box has lo dim %d, hi dim %d", dim, len(m.Hi))
	}
	for i := range m.Lo {
		if m.Lo[i] < 0 || m.Hi[i] < m.Lo[i] {
			return nil, fmt.Errorf("shard: manifest box axis %d has invalid range [%d, %d]", i, m.Lo[i], m.Hi[i])
		}
	}
	if m.Axis < 0 || m.Axis >= dim {
		return nil, fmt.Errorf("shard: manifest axis %d out of range for dimension %d", m.Axis, dim)
	}
	if len(m.Slabs) == 0 {
		return nil, fmt.Errorf("shard: manifest has no slabs")
	}
	want := m.Lo[m.Axis]
	for k, s := range m.Slabs {
		if s.From != want || s.To < s.From {
			return nil, fmt.Errorf("shard: slab %d range [%d, %d] does not partition [%d, %d]",
				k, s.From, s.To, m.Lo[m.Axis], m.Hi[m.Axis])
		}
		want = s.To + 1
	}
	if want != m.Hi[m.Axis]+1 {
		return nil, fmt.Errorf("shard: slabs cover up to %d, want %d", want-1, m.Hi[m.Axis])
	}
	return &m, nil
}

// Hash is the manifest identity: the SHA-256 of the manifest file's
// exact bytes, stamped into slab checkpoints and results so no artifact
// of one search can ever be applied to another.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// network resolves the embedded spec.
func (m *Manifest) network() (*netmodel.Network, error) {
	n, err := netmodel.ParseSpec(m.Network)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest network: %w", err)
	}
	return n, nil
}

// coreOptions reconstructs the evaluation options a worker runs with.
func (m *Manifest) coreOptions() (core.Options, error) {
	ev, err := parseEvaluator(m.Evaluator)
	if err != nil {
		return core.Options{}, err
	}
	obj, err := parseObjective(m.Objective)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Evaluator:       ev,
		Objective:       obj,
		Search:          core.ExhaustiveSearch,
		Workers:         m.Workers,
		ExactEngine:     m.ExactEngine,
		DisableFallback: m.NoFallback,
	}, nil
}

// slabBox returns slab k's closed sub-box: the global box with the
// partition axis restricted to the slab's range.
func (m *Manifest) slabBox(k int) (lo, hi numeric.IntVector) {
	lo = append(numeric.IntVector(nil), m.Lo...)
	hi = append(numeric.IntVector(nil), m.Hi...)
	lo[m.Axis] = m.Slabs[k].From
	hi[m.Axis] = m.Slabs[k].To
	return lo, hi
}

func parseEvaluator(s string) (core.Evaluator, error) {
	switch s {
	case "sigma":
		return core.EvalSigmaMVA, nil
	case "schweitzer":
		return core.EvalSchweitzerMVA, nil
	case "linearizer":
		return core.EvalLinearizerMVA, nil
	case "exact":
		return core.EvalExactMVA, nil
	}
	return 0, fmt.Errorf("shard: unknown evaluator %q", s)
}

func evaluatorName(e core.Evaluator) (string, error) {
	switch e {
	case core.EvalSigmaMVA:
		return "sigma", nil
	case core.EvalSchweitzerMVA:
		return "schweitzer", nil
	case core.EvalLinearizerMVA:
		return "linearizer", nil
	case core.EvalExactMVA:
		return "exact", nil
	}
	return "", fmt.Errorf("shard: unserialisable evaluator %v", e)
}

func parseObjective(s string) (core.ObjectiveKind, error) {
	switch s {
	case "power":
		return core.ObjNetworkPower, nil
	case "min-class":
		return core.ObjMinClassPower, nil
	case "sum-class":
		return core.ObjSumClassPower, nil
	}
	return 0, fmt.Errorf("shard: unknown objective %q", s)
}

func objectiveName(o core.ObjectiveKind) (string, error) {
	switch o {
	case core.ObjNetworkPower:
		return "power", nil
	case core.ObjMinClassPower:
		return "min-class", nil
	case core.ObjSumClassPower:
		return "sum-class", nil
	}
	return "", fmt.Errorf("shard: unserialisable objective %v", o)
}

// SlabResult is one slab's final optimum, written durably by the worker
// that completed the scan and merged by the coordinator.
type SlabResult struct {
	Version      int    `json:"version"`
	Kind         string `json:"kind"`
	ManifestHash string `json:"manifest_hash"`
	Slab         int    `json:"slab"`
	// Epoch is the fencing epoch of the lease under which this result was
	// written. The coordinator refuses results whose epoch is not the
	// slab's current lease epoch — the fence that keeps a zombie worker's
	// output out of the merge.
	Epoch int `json:"epoch"`
	// Best is the slab's minimiser (nil when every candidate in the slab
	// is infeasible), BestValue its objective value.
	Best      []int             `json:"best,omitempty"`
	BestValue pattern.JSONFloat `json:"best_value"`
	// Evaluations and NonConverged total the slab's candidate
	// evaluations across every attempt that contributed a stride.
	Evaluations  int `json:"evaluations"`
	NonConverged int `json:"non_converged,omitempty"`
	// Strides is the number of completed stride scans (= the slab's axis
	// width when the scan ran to completion).
	Strides int `json:"strides"`
	// Resumed marks a result assembled by a worker that picked up a
	// previous attempt's checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// ParseSlabResult decodes and validates one slab-result file on its own
// (manifest-independent checks only; ValidateFor ties it to a search).
// This is the hostile-input surface the coordinator parses after a
// worker crash, so it is strict: unknown fields, bad versions, malformed
// hashes and negative counters are all corrupt.
func ParseSlabResult(data []byte) (*SlabResult, error) {
	if len(data) > maxResultBytes {
		return nil, fmt.Errorf("shard: slab result exceeds %d bytes", maxResultBytes)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var r SlabResult
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("shard: parsing slab result: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("shard: trailing data after slab result")
	}
	if r.Version != FormatVersion {
		return nil, fmt.Errorf("shard: slab result version %d, want %d", r.Version, FormatVersion)
	}
	if r.Kind != resultKind {
		return nil, fmt.Errorf("shard: slab result kind %q, want %q", r.Kind, resultKind)
	}
	if !validHash(r.ManifestHash) {
		return nil, fmt.Errorf("shard: slab result manifest hash %q is not a sha256 hex digest", r.ManifestHash)
	}
	if r.Slab < 0 {
		return nil, fmt.Errorf("shard: negative slab index %d", r.Slab)
	}
	if r.Epoch < 1 {
		return nil, fmt.Errorf("shard: slab result epoch %d below 1", r.Epoch)
	}
	if r.Evaluations < 0 || r.NonConverged < 0 || r.Strides < 0 {
		return nil, fmt.Errorf("shard: negative counters in slab result")
	}
	for _, w := range r.Best {
		if w < 0 {
			return nil, fmt.Errorf("shard: negative window in slab result best %v", r.Best)
		}
	}
	return &r, nil
}

// ValidateFor ties a parsed slab result to a specific search: the
// manifest hash, slab index, window dimension and slab bounds must all
// agree, or the file belongs to some other (or corrupted) run.
func (r *SlabResult) ValidateFor(m *Manifest, hash string, slab int) error {
	if r.ManifestHash != hash {
		return fmt.Errorf("shard: slab result written for manifest %.12s…, this search is %.12s…", r.ManifestHash, hash)
	}
	if r.Slab != slab {
		return fmt.Errorf("shard: slab result names slab %d, expected %d", r.Slab, slab)
	}
	if r.Best != nil {
		if len(r.Best) != len(m.Lo) {
			return fmt.Errorf("shard: slab result best has %d windows for %d classes", len(r.Best), len(m.Lo))
		}
		lo, hi := m.slabBox(slab)
		for i, w := range r.Best {
			if w < lo[i] || w > hi[i] {
				return fmt.Errorf("shard: slab result best %v outside slab box [%v, %v]", r.Best, lo, hi)
			}
		}
	}
	width := m.Slabs[slab].To - m.Slabs[slab].From + 1
	if r.Strides != width {
		return fmt.Errorf("shard: slab result covers %d strides of %d", r.Strides, width)
	}
	return nil
}

// ckptHeader is the first line of a slab checkpoint file. Epoch is the
// fencing epoch of the attempt that (re)established the file; each
// relaunch rewrites the durable prefix with its own epoch.
type ckptHeader struct {
	Version      int    `json:"version"`
	Kind         string `json:"kind"`
	ManifestHash string `json:"manifest_hash"`
	Slab         int    `json:"slab"`
	Epoch        int    `json:"epoch"`
	Dim          int    `json:"dim"`
}

// ckptRecord is one appended line: the slab's cumulative state after one
// completed stride (a full scan of one axis value). Best uses the
// IntVector.Key form ("w1,w2,...") validated by pattern.ValidPointKey,
// like the pattern-search checkpoint cache keys. Each record repeats the
// writing epoch: a record appended by a fenced-out zombie (stale epoch
// onto a file a newer attempt rewrote is impossible — the rename
// orphaned its fd — but a zombie re-running openSlabCkpt is not) is
// detected and dropped like a torn tail.
type ckptRecord struct {
	Stride       int               `json:"stride"`
	Epoch        int               `json:"epoch"`
	Best         string            `json:"best,omitempty"`
	BestValue    pattern.JSONFloat `json:"best_value"`
	Evaluations  int               `json:"evaluations"`
	NonConverged int               `json:"non_converged,omitempty"`
}

// SlabCheckpoint is the replayable state of one slab: the header and the
// last intact cumulative record. A torn final line (crash mid-append) is
// dropped, losing at most one stride of progress.
type SlabCheckpoint struct {
	Header ckptHeader
	// Last is the newest intact record (nil when the file holds only a
	// header); Records counts the intact records kept.
	Last    *ckptRecord
	Records int
	// TornTail marks a dropped tail: an unterminated final line, or a
	// record that did not decode or came from another epoch, with
	// everything after it.
	TornTail bool
}

// ParseSlabCheckpoint decodes a slab checkpoint file. The header must be
// intact (a checkpoint whose identity cannot be established is useless);
// record lines are consumed until the first that does not decode, and
// everything from there on is suspect and dropped with it.
func ParseSlabCheckpoint(data []byte) (*SlabCheckpoint, error) {
	if len(data) > maxCkptBytes {
		return nil, fmt.Errorf("shard: slab checkpoint exceeds %d bytes", maxCkptBytes)
	}
	lines, torn := durable.Lines(data)
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return nil, fmt.Errorf("shard: slab checkpoint has no header")
	}
	cp := &SlabCheckpoint{TornTail: torn}
	hdec := json.NewDecoder(bytes.NewReader(lines[0]))
	hdec.DisallowUnknownFields()
	if err := hdec.Decode(&cp.Header); err != nil {
		return nil, fmt.Errorf("shard: slab checkpoint header: %w", err)
	}
	h := &cp.Header
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("shard: slab checkpoint version %d, want %d", h.Version, FormatVersion)
	}
	if h.Kind != ckptKind {
		return nil, fmt.Errorf("shard: slab checkpoint kind %q, want %q", h.Kind, ckptKind)
	}
	if !validHash(h.ManifestHash) {
		return nil, fmt.Errorf("shard: slab checkpoint manifest hash %q is not a sha256 hex digest", h.ManifestHash)
	}
	if h.Slab < 0 || h.Dim <= 0 {
		return nil, fmt.Errorf("shard: slab checkpoint slab %d dim %d", h.Slab, h.Dim)
	}
	if h.Epoch < 1 {
		return nil, fmt.Errorf("shard: slab checkpoint epoch %d below 1", h.Epoch)
	}
	prev := -1 << 62
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var rec ckptRecord
		if err := dec.Decode(&rec); err != nil || dec.More() {
			cp.TornTail = true
			break
		}
		if rec.Epoch != h.Epoch {
			// A record from any epoch but the one that established this
			// file is a protocol violator's append (a zombie that skipped
			// the prefix rewrite). Drop it and everything after it, like a
			// torn tail: the prefix up to here is still trustworthy.
			cp.TornTail = true
			break
		}
		if rec.Stride <= prev {
			return nil, fmt.Errorf("shard: slab checkpoint stride %d does not advance past %d", rec.Stride, prev)
		}
		if rec.Best != "" && !pattern.ValidPointKey(rec.Best, h.Dim) {
			return nil, fmt.Errorf("shard: slab checkpoint best %q is not a %d-dimensional lattice point", rec.Best, h.Dim)
		}
		if rec.Evaluations < 0 || rec.NonConverged < 0 {
			return nil, fmt.Errorf("shard: negative counters in slab checkpoint record")
		}
		prev = rec.Stride
		r := rec
		cp.Last = &r
		cp.Records++
	}
	return cp, nil
}

// validHash reports whether s looks like a sha256 hex digest.
func validHash(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// parsePointKey decodes an IntVector.Key form ("w1,w2,...") already
// vetted by pattern.ValidPointKey.
func parsePointKey(k string, dim int) (numeric.IntVector, error) {
	if !pattern.ValidPointKey(k, dim) {
		return nil, fmt.Errorf("shard: %q is not a %d-dimensional lattice point", k, dim)
	}
	parts := strings.Split(k, ",")
	v := make(numeric.IntVector, dim)
	for i, p := range parts {
		w, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("shard: point key %q: %w", k, err)
		}
		v[i] = w
	}
	return v, nil
}

// lexLess is the global lattice order restricted to points: strict
// lexicographic comparison, leftmost axis most significant — the order
// numeric.LatticeIndex ranks the box in.
func lexLess(a, b numeric.IntVector) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// improves implements the deterministic merge rule shared by the
// worker's cross-stride fold and the coordinator's cross-slab fold:
// candidate (v, p) beats incumbent (bestV, best) on a strictly smaller
// value, or an equal value at a lexicographically earlier point. Because
// within-slab scans already resolve ties to the earliest lattice point,
// folding slab optima with this rule reproduces the single-process
// tie-break bit-for-bit.
func improves(v float64, p numeric.IntVector, bestV float64, best numeric.IntVector) bool {
	if p == nil {
		return false
	}
	if best == nil {
		return true
	}
	if v != bestV {
		return v < bestV
	}
	return lexLess(p, best)
}
