package shard

// Fuzz harnesses for the spool wire formats — the hostile-input surface
// the coordinator and workers parse after crashes. The invariant under
// fuzz is memory-safety plus parse/validate consistency: anything the
// parsers accept must satisfy the structural guarantees the rest of the
// package assumes (partitioning slabs, in-range points, sane counters).

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func FuzzParseSlabResult(f *testing.F) {
	hash := strings.Repeat("ab", 32)
	good, _ := json.Marshal(&SlabResult{
		Version: FormatVersion, Kind: resultKind, ManifestHash: hash,
		Slab: 1, Epoch: 1, Best: []int{2, 3}, BestValue: 0.25, Evaluations: 36, Strides: 2,
	})
	f.Add(good)
	f.Add(good[:len(good)/2]) // torn prefix
	f.Add([]byte(`{"version":1,"kind":"shard-slab-result"}`))
	f.Add([]byte(`{"best_value":"+Inf"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseSlabResult(data)
		if err != nil {
			return
		}
		// Accepted results must satisfy what the merge assumes.
		if r.Version != FormatVersion || r.Kind != resultKind {
			t.Fatalf("accepted result with version %d kind %q", r.Version, r.Kind)
		}
		if !validHash(r.ManifestHash) {
			t.Fatalf("accepted result with hash %q", r.ManifestHash)
		}
		if r.Slab < 0 || r.Epoch < 1 || r.Evaluations < 0 || r.NonConverged < 0 || r.Strides < 0 {
			t.Fatalf("accepted result with negative counters: %+v", r)
		}
		for _, w := range r.Best {
			if w < 0 {
				t.Fatalf("accepted result with negative window: %v", r.Best)
			}
		}
		// Round trip: marshal and re-parse must agree.
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := ParseSlabResult(out); err != nil {
			t.Fatalf("re-parse of accepted result failed: %v\n%s", err, out)
		}
	})
}

func FuzzParseManifest(f *testing.F) {
	opts := Options{Slabs: 3, Axis: -1}
	if m, err := buildManifest(testNetwork(), testCoreOptions(), &opts); err == nil {
		if data, err := json.Marshal(m); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"version":1,"kind":"shard-manifest"}`))
	f.Add([]byte(`{"lo":[1],"hi":[6],"axis":0,"slabs":[{"from":1,"to":6}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		// Accepted manifests must carry a true partition: contiguous,
		// ascending, exactly covering the axis range — the property the
		// "no candidate scanned twice or skipped" guarantee rests on.
		dim := len(m.Lo)
		if dim == 0 || len(m.Hi) != dim || m.Axis < 0 || m.Axis >= dim {
			t.Fatalf("accepted malformed box: %+v", m)
		}
		want := m.Lo[m.Axis]
		for _, s := range m.Slabs {
			if s.From != want || s.To < s.From {
				t.Fatalf("accepted non-partitioning slabs: %+v", m.Slabs)
			}
			want = s.To + 1
		}
		if want != m.Hi[m.Axis]+1 {
			t.Fatalf("accepted short slab cover: %+v", m.Slabs)
		}
		if _, err := core.ParseEvaluator(m.Evaluator); err != nil {
			t.Fatalf("accepted evaluator %q", m.Evaluator)
		}
		if _, err := core.ParseObjective(m.Objective); err != nil {
			t.Fatalf("accepted objective %q", m.Objective)
		}
	})
}

func FuzzParseLease(f *testing.F) {
	hash := strings.Repeat("ef", 32)
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	good, _ := json.Marshal(&Lease{
		Version: FormatVersion, Kind: leaseKind, ManifestHash: hash,
		Slab: 1, Epoch: 3, Owner: "sim0/pid7", TTLMS: 10_000,
		Acquired: now, Renewed: now,
	})
	f.Add(good)
	f.Add(good[:len(good)/2])                 // torn write
	f.Add(append([]byte(nil), good[1:]...))   // torn head
	f.Add(bytes.Replace(good, []byte(`"epoch":3`), []byte(`"epoch":0`), 1))  // stale epoch
	f.Add(bytes.Replace(good, []byte(`"epoch":3`), []byte(`"epoch":-9`), 1)) // negative epoch
	f.Add(bytes.Replace(good, []byte(hash), []byte(strings.Repeat("zz", 32)), 1)) // foreign hash
	f.Add(bytes.Replace(good, []byte(`"ttl_ms":10000`), []byte(`"ttl_ms":0`), 1)) // dead TTL
	f.Add([]byte(`{"version":2,"kind":"shard-slab-lease"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte{'{'}, maxLeaseBytes+1)) // oversized
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ParseLease(data)
		if err != nil {
			return
		}
		// Anything accepted must be usable as an ownership proof: right
		// format, a real manifest hash, an epoch that can fence, a TTL
		// that can expire.
		if l.Version != FormatVersion || l.Kind != leaseKind {
			t.Fatalf("accepted lease with version %d kind %q", l.Version, l.Kind)
		}
		if !validHash(l.ManifestHash) {
			t.Fatalf("accepted lease with hash %q", l.ManifestHash)
		}
		if l.Slab < 0 || l.Epoch < 1 || l.TTLMS <= 0 {
			t.Fatalf("accepted lease with slab %d epoch %d ttl %d", l.Slab, l.Epoch, l.TTLMS)
		}
		if l.Acquired.IsZero() || l.Renewed.IsZero() {
			t.Fatalf("accepted lease without timestamps: %+v", l)
		}
		// LiveAt must be consistent with TTL arithmetic.
		if l.LiveAt(l.Renewed.Add(l.TTL())) {
			t.Fatalf("lease live at its own expiry: %+v", l)
		}
		if !l.LiveAt(l.Renewed) {
			t.Fatalf("lease dead at its own renewal instant: %+v", l)
		}
		// Round trip: marshal and re-parse must agree.
		out, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := ParseLease(out); err != nil {
			t.Fatalf("re-parse of accepted lease failed: %v\n%s", err, out)
		}
	})
}

func FuzzParseSlabCheckpoint(f *testing.F) {
	hash := strings.Repeat("cd", 32)
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	_ = enc.Encode(ckptHeader{Version: FormatVersion, Kind: ckptKind, ManifestHash: hash, Slab: 0, Epoch: 1, Dim: 2})
	_ = enc.Encode(ckptRecord{Stride: 1, Epoch: 1, Best: "2,3", BestValue: 0.5, Evaluations: 6})
	f.Add([]byte(sb.String()))
	f.Add([]byte(sb.String() + `{"stride":2,"best":"2,`))                                    // torn tail
	f.Add([]byte(sb.String() + `{"stride":2,"epoch":9,"best_value":0.5,"evaluations":9}\n`)) // zombie append
	f.Add([]byte(`{}`))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ParseSlabCheckpoint(data)
		if err != nil {
			return
		}
		h := cp.Header
		if h.Version != FormatVersion || h.Kind != ckptKind || !validHash(h.ManifestHash) || h.Slab < 0 || h.Epoch < 1 || h.Dim <= 0 {
			t.Fatalf("accepted checkpoint with header %+v", h)
		}
		if cp.Last != nil {
			if cp.Last.Evaluations < 0 || cp.Last.NonConverged < 0 {
				t.Fatalf("accepted record with negative counters: %+v", cp.Last)
			}
			if cp.Last.Epoch != h.Epoch {
				t.Fatalf("accepted record from epoch %d under header epoch %d", cp.Last.Epoch, h.Epoch)
			}
			if cp.Last.Best != "" {
				if _, err := parsePointKey(cp.Last.Best, h.Dim); err != nil {
					t.Fatalf("accepted unparsable best %q: %v", cp.Last.Best, err)
				}
			}
		} else if cp.Records != 0 {
			t.Fatalf("records=%d with no last record", cp.Records)
		}
	})
}
