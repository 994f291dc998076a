package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestParseJobValid(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"example", `{"example": "canada2"}`},
		{"example with options", `{"id": "j1", "example": "canada4", "evaluator": "schweitzer", "objective": "min-class", "max_window": 8, "workers": 2}`},
		{"topo", `{"topo": "mesh:8,4,4", "topo_seed": 7}`},
		{"rates override", `{"example": "canada2", "rates": [24, 18]}`},
		{"explicit start", `{"example": "canada2", "start": [3, 3]}`},
		{"robust", `{"example": "canada2", "scenarios": {"scenarios": [{"name": "nominal"}, {"name": "cut", "capacity_scale": {"WT": 0.5}}]}, "robust": "minmax"}`},
		{"exact engine", `{"example": "canada2", "evaluator": "exact", "exact_engine": true, "max_window": 6}`},
		{"timeouts and retries", `{"example": "canada2", "timeout_ms": 5000, "eval_timeout_ms": 100, "max_retries": 0}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, err := ParseJob([]byte(tc.spec))
			if err != nil {
				t.Fatalf("ParseJob(%s): %v", tc.spec, err)
			}
			if job.Net == nil {
				t.Fatal("parsed job has no network")
			}
			// The normalised form must be re-admissible: a restarted
			// daemon parses the journalled spec straight back.
			raw, err := json.Marshal(job.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseJob(raw); err != nil {
				t.Fatalf("normalised spec does not re-parse: %v", err)
			}
		})
	}
}

func TestParseJobRejects(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"empty", `{}`, "exactly one of"},
		{"two sources", `{"example": "canada2", "topo": "mesh:8,4,4"}`, "exactly one of"},
		{"unknown field", `{"example": "canada2", "windows": [4, 4]}`, "unknown field"},
		{"trailing data", `{"example": "canada2"} {"example": "canada2"}`, "trailing data"},
		{"bad id", `{"id": "../../etc/passwd", "example": "canada2"}`, "job id"},
		{"dot id", `{"id": ".hidden", "example": "canada2"}`, "job id"},
		{"unknown example", `{"example": "usa9"}`, "unknown example"},
		{"bad topo", `{"topo": "torus:2,2,2"}`, "topology family"},
		{"rates on topo", `{"topo": "mesh:8,4,4", "rates": [1, 2, 3, 4]}`, "rates do not apply"},
		{"rates length", `{"example": "canada2", "rates": [1]}`, "2 classes"},
		{"bad evaluator", `{"example": "canada2", "evaluator": "magic"}`, "unknown evaluator"},
		{"bad objective", `{"example": "canada2", "objective": "profit"}`, "unknown objective"},
		{"robust without scenarios", `{"example": "canada2", "robust": "minmax"}`, "without scenarios"},
		{"bad robust", `{"example": "canada2", "scenarios": {"scenarios": [{"name": "a"}]}, "robust": "median"}`, "robust criterion"},
		{"start length", `{"example": "canada2", "start": [1, 2, 3]}`, "start vector"},
		{"start below one", `{"example": "canada2", "start": [0, 4]}`, "at least 1"},
		{"negative max_window", `{"example": "canada2", "max_window": -1}`, "max_window"},
		{"negative workers", `{"example": "canada2", "workers": -2}`, "workers"},
		{"negative timeout", `{"example": "canada2", "timeout_ms": -5}`, "timeout_ms"},
		{"negative retries", `{"example": "canada2", "max_retries": -1}`, "max_retries"},
		{"not json", `windows go brr`, "parsing job spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJob([]byte(tc.spec))
			if err == nil {
				t.Fatalf("ParseJob(%s) accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseJob(%s) = %v, want mention of %q", tc.spec, err, tc.want)
			}
		})
	}
}

// TestValidID: a job id is admitted only when it is safe as a spool file
// stem; an omitted id is admitted too (the server assigns one).
func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"job-1":                 true,
		"a":                     true,
		"A.b_c-9":               true,
		"":                      true,
		".":                     false,
		"..":                    false,
		".hidden":               false,
		"a/b":                   false,
		"a b":                   false,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
	} {
		_, err := ParseJob([]byte(fmt.Sprintf(`{"id": %q, "example": "canada2"}`, id)))
		if got := err == nil; got != want {
			t.Errorf("ParseJob with id %q: err = %v, want admitted %t", id, err, want)
		}
	}
}

// FuzzParseJob checks the job parser never panics on arbitrary input and
// that every spec it accepts yields a resolved network and survives the
// normalise/re-parse round trip the journal depends on.
func FuzzParseJob(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"example": "canada2"}`))
	f.Add([]byte(`{"id": "j1", "example": "canada4", "evaluator": "exact", "exact_engine": true, "max_window": 6}`))
	f.Add([]byte(`{"topo": "clos:4,2,8", "topo_seed": 3}`))
	f.Add([]byte(`{"example": "canada2", "rates": [24, 18], "start": [3, 3], "workers": 2}`))
	f.Add([]byte(`{"example": "canada2", "scenarios": {"scenarios": [{"name": "cut", "capacity_scale": {"WT": 0.5}}]}, "robust": "weighted"}`))
	f.Add([]byte(`{"example": "canada2", "max_retries": 0, "timeout_ms": 1000}`))
	f.Add([]byte(`{"network": {"nodes": []}}`))
	f.Add([]byte(`{"example": "tandem4", "start": [0]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := ParseJob(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if job.Net == nil {
			t.Fatal("accepted job without a network")
		}
		if len(job.Spec.Start) != 0 && len(job.Spec.Start) != len(job.Net.Classes) {
			t.Fatal("accepted start vector of the wrong length")
		}
		raw, err := json.Marshal(job.Spec)
		if err != nil {
			t.Fatalf("normalising an accepted spec: %v", err)
		}
		again, err := ParseJob(raw)
		if err != nil {
			t.Fatalf("normalised spec does not re-parse: %v", err)
		}
		if again.Robust() != job.Robust() {
			t.Fatal("re-parse changed robustness")
		}
	})
}
