// Package service implements windimd: a crash-safe, multi-tenant
// dimensioning daemon around the WINDIM machinery in internal/core.
//
// A job is a network (inline spec, built-in example, or synthetic
// topology), an optional scenario set, and search options, submitted as
// JSON over HTTP. Jobs run on a bounded worker pool with admission
// control (queue depth, a global convolution-oracle memory budget with
// LRU eviction), per-job fault containment (context deadlines, the
// per-candidate watchdog, panic recovery, retries with exponential
// backoff), and a crash-safe journal: every job persists as an fsynced
// record in a spool directory next to its pattern-search checkpoint, so
// a killed daemon resumes interrupted jobs on restart and converges to
// the bit-identical result an uninterrupted run would have produced.
package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/numeric"
)

// maxSpecBytes bounds a job submission; a dimensioning request is a few
// KB of topology and scenarios, never megabytes.
const maxSpecBytes = 1 << 20

// JobSpec is the JSON wire form of a dimensioning job. Exactly one of
// Network (an inline netmodel spec), Example (a built-in name), or Topo
// (a generator spec, see cliutil.ParseTopo) names the network; everything
// else is optional and zero values reproduce windim's defaults.
type JobSpec struct {
	// ID names the job; [A-Za-z0-9._-], at most 64 runes. Empty means the
	// server assigns a random one. IDs are also spool file names.
	ID string `json:"id,omitempty"`
	// Kind selects the search machinery: "dimension" (default) runs the
	// pattern search in-process; "shard" runs the sharded exhaustive
	// search — the internal/shard coordinator supervising worker
	// processes over a per-job spool kept next to the journal record.
	Kind string `json:"kind,omitempty"`
	// Shard tunes kind:"shard" jobs; nil takes every coordinator default.
	Shard *ShardSpec `json:"shard,omitempty"`
	// Network is an inline JSON network spec (netmodel.ParseSpec).
	Network json.RawMessage `json:"network,omitempty"`
	// Example is a built-in example name: canada2, canada4, tandemN.
	Example string `json:"example,omitempty"`
	// Topo generates a synthetic topology: clos:L,S,C | scalefree:N,M,C |
	// mesh:N,E,C, seeded by TopoSeed (same spec and seed, same network).
	Topo     string `json:"topo,omitempty"`
	TopoSeed uint64 `json:"topo_seed,omitempty"`
	// Rates overrides the per-class arrival rates — the knob an online
	// re-dimensioning loop turns as measured traffic drifts. Not allowed
	// with Topo (generated rates are utilisation-scaled).
	Rates []float64 `json:"rates,omitempty"`
	// Scenarios, when present, is a core.ScenarioSetSpec; the job then
	// dimensions robustly against it under the Robust criterion.
	Scenarios json.RawMessage `json:"scenarios,omitempty"`
	// Robust is the robust criterion with Scenarios: "minmax" (default)
	// or "weighted".
	Robust string `json:"robust,omitempty"`
	// Evaluator: "sigma" (default), "schweitzer", "linearizer", "exact".
	Evaluator string `json:"evaluator,omitempty"`
	// Objective: "power" (default), "min-class", "sum-class".
	Objective string `json:"objective,omitempty"`
	// MaxWindow bounds every window from above (0 = the core default 64).
	MaxWindow int `json:"max_window,omitempty"`
	// Start overrides the initial window vector. When absent the server
	// warm-starts from the last optimum it solved for the same network
	// structure (if any), falling back to the hop-count rule.
	Start []int `json:"start,omitempty"`
	// Workers parallelises candidate evaluation inside this job's search
	// (clamped by the server; the trajectory is worker-count-independent).
	Workers int `json:"workers,omitempty"`
	// ExactEngine routes exact evaluations through the server's shared,
	// memory-budgeted convolution-oracle cache.
	ExactEngine bool `json:"exact_engine,omitempty"`
	// EvalTimeoutMS arms the per-candidate watchdog (0 = server default).
	EvalTimeoutMS int64 `json:"eval_timeout_ms,omitempty"`
	// TimeoutMS bounds each attempt of the job (0 = server default). On
	// expiry the job completes with its best-so-far windows, marked
	// partial.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRetries caps automatic retries after transient failures; nil
	// means the server default, 0 disables retries.
	MaxRetries *int `json:"max_retries,omitempty"`
	// DegradeAfter/MinScenarios tune graceful scenario degradation for
	// robust jobs (see core.Options).
	DegradeAfter int `json:"degrade_after,omitempty"`
	MinScenarios int `json:"min_scenarios,omitempty"`
	// CheckpointEvery is the commit cadence of durable checkpoint writes
	// (0 = every commit).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// ShardSpec is the wire form of a kind:"shard" job's coordinator knobs
// (see internal/shard.Options). Zero values take coordinator defaults.
type ShardSpec struct {
	// Procs bounds concurrently running worker processes (0 = 2).
	Procs int `json:"procs,omitempty"`
	// Slabs is the partition arity (0 = 2×procs, clamped to the axis).
	Slabs int `json:"slabs,omitempty"`
	// Axis is the class axis to partition; nil (or -1) picks the widest.
	Axis *int `json:"axis,omitempty"`
	// SlabRetries bounds relaunches per slab beyond the first attempt;
	// nil means the coordinator default (2), 0 disables slab retries.
	SlabRetries *int `json:"slab_retries,omitempty"`
	// AllowLost tolerates up to this many lost slabs, degrading
	// gracefully with recorded reasons.
	AllowLost int `json:"allow_lost,omitempty"`
	// MaxHostsLost tolerates up to this many permanently lost worker
	// hosts, redistributing their slabs.
	MaxHostsLost int `json:"max_hosts_lost,omitempty"`
	// LeaseTTLMS is the slab lease renewal deadline (0 = default 10s).
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
	// SlabDeadlineMS is the per-stride progress deadline before a worker
	// is presumed hung and its slab reassigned (0 = default 2m).
	SlabDeadlineMS int64 `json:"slab_deadline_ms,omitempty"`
}

// Job is a parsed, validated job: the resolved network and scenario set
// plus the core options fragments the runner assembles per attempt.
type Job struct {
	Spec JobSpec
	// Raw is the normalised spec as persisted in the journal, so a
	// restarted daemon re-parses exactly what was admitted.
	Raw []byte
	Net *netmodel.Network
	// Scenarios is non-empty for robust jobs; Kind is its criterion.
	Scenarios []core.Scenario
	Kind      core.RobustKind
	Evaluator core.Evaluator
	Objective core.ObjectiveKind
}

// Robust reports whether the job dimensions against a scenario set.
func (j *Job) Robust() bool { return len(j.Scenarios) > 0 }

// Sharded reports whether the job runs the sharded exhaustive search.
func (j *Job) Sharded() bool { return j.Spec.Kind == "shard" }

// validID reports whether id is safe as a job name and spool file stem.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	// Dot-leading names hide in directory listings and "." / ".." are
	// path navigation; refuse the whole family.
	return id[0] != '.'
}

// ParseJob decodes and fully validates a job submission: unknown fields
// are rejected (a misspelled option silently ignored is a misdimensioned
// network), the network is resolved and validated, scenario and option
// names are checked, and vector lengths are verified against the network.
// Malformed input of any shape returns an error, never a panic.
func ParseJob(data []byte) (*Job, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("service: job spec is %d bytes; the limit is %d", len(data), maxSpecBytes)
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("service: parsing job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("service: trailing data after job spec")
	}
	if spec.ID != "" && !validID(spec.ID) {
		return nil, fmt.Errorf("service: job id %q: need 1-64 characters of [A-Za-z0-9._-], not starting with a dot", spec.ID)
	}

	sources := 0
	for _, set := range []bool{len(spec.Network) > 0, spec.Example != "", spec.Topo != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("service: exactly one of network, example, topo must be given")
	}
	var n *netmodel.Network
	var err error
	switch {
	case len(spec.Network) > 0:
		n, err = netmodel.ParseSpec(spec.Network)
	case spec.Example != "":
		n, err = cliutil.BuiltinExample(spec.Example)
	default:
		n, err = cliutil.ParseTopo(spec.Topo, spec.TopoSeed)
	}
	if err != nil {
		return nil, fmt.Errorf("service: resolving job network: %w", err)
	}
	if spec.Rates != nil {
		if spec.Topo != "" {
			return nil, fmt.Errorf("service: rates do not apply to generated topologies (their rates are utilisation-scaled)")
		}
		if len(spec.Rates) != len(n.Classes) {
			return nil, fmt.Errorf("service: %d rates for %d classes", len(spec.Rates), len(n.Classes))
		}
		for r := range n.Classes {
			n.Classes[r].Rate = spec.Rates[r]
		}
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("service: job network invalid: %w", err)
	}

	job := &Job{Spec: spec, Net: n}
	if len(spec.Scenarios) > 0 {
		job.Scenarios, err = core.ParseScenarios(spec.Scenarios, n)
		if err != nil {
			return nil, fmt.Errorf("service: job scenarios: %w", err)
		}
	}
	// Omitted enum fields take their documented defaults.
	if job.Kind, err = core.ParseRobustKind(cmp.Or(spec.Robust, "minmax")); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if spec.Robust != "" && len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("service: robust criterion given without scenarios")
	}
	if job.Evaluator, err = core.ParseEvaluator(cmp.Or(spec.Evaluator, "sigma")); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if job.Objective, err = core.ParseObjective(cmp.Or(spec.Objective, "power")); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	switch spec.Kind {
	case "", "dimension":
		if spec.Shard != nil {
			return nil, fmt.Errorf("service: shard settings require kind \"shard\"")
		}
	case "shard":
		// The sharded coordinator runs the exhaustive search over the full
		// window box: scenario sets, start vectors, and the per-candidate
		// watchdog belong to the pattern search and would be silently
		// meaningless here — reject rather than ignore.
		if len(spec.Scenarios) > 0 {
			return nil, fmt.Errorf("service: kind \"shard\" does not take scenarios (the exhaustive search is not robust)")
		}
		if spec.Start != nil {
			return nil, fmt.Errorf("service: kind \"shard\" does not take a start vector (the exhaustive search scans the whole box)")
		}
		if spec.EvalTimeoutMS != 0 {
			return nil, fmt.Errorf("service: kind \"shard\" does not take eval_timeout_ms (the coordinator's slab deadline handles stuck workers)")
		}
		if sh := spec.Shard; sh != nil {
			if sh.Procs < 0 || sh.Slabs < 0 || sh.AllowLost < 0 || sh.MaxHostsLost < 0 ||
				sh.LeaseTTLMS < 0 || sh.SlabDeadlineMS < 0 {
				return nil, fmt.Errorf("service: negative shard settings")
			}
			if sh.Axis != nil && (*sh.Axis < -1 || *sh.Axis >= len(n.Classes)) {
				return nil, fmt.Errorf("service: shard axis %d out of range for %d classes", *sh.Axis, len(n.Classes))
			}
			if sh.SlabRetries != nil && *sh.SlabRetries < 0 {
				return nil, fmt.Errorf("service: negative slab_retries %d", *sh.SlabRetries)
			}
		}
	default:
		return nil, fmt.Errorf("service: unknown job kind %q (want dimension or shard)", spec.Kind)
	}
	if spec.MaxWindow < 0 {
		return nil, fmt.Errorf("service: negative max_window %d", spec.MaxWindow)
	}
	if spec.Start != nil {
		if len(spec.Start) != len(n.Classes) {
			return nil, fmt.Errorf("service: start vector has %d entries for %d classes", len(spec.Start), len(n.Classes))
		}
		for i, w := range spec.Start {
			if w < 1 {
				return nil, fmt.Errorf("service: start window %d at index %d; windows are at least 1", w, i)
			}
		}
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("service: negative workers %d", spec.Workers)
	}
	for name, ms := range map[string]int64{"eval_timeout_ms": spec.EvalTimeoutMS, "timeout_ms": spec.TimeoutMS} {
		if ms < 0 {
			return nil, fmt.Errorf("service: negative %s %d", name, ms)
		}
	}
	if spec.MaxRetries != nil && *spec.MaxRetries < 0 {
		return nil, fmt.Errorf("service: negative max_retries %d", *spec.MaxRetries)
	}
	if spec.DegradeAfter < 0 || spec.MinScenarios < 0 {
		return nil, fmt.Errorf("service: negative degradation settings")
	}
	if spec.CheckpointEvery < 0 {
		return nil, fmt.Errorf("service: negative checkpoint_every %d", spec.CheckpointEvery)
	}
	job.Raw, err = json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: normalising job spec: %w", err)
	}
	return job, nil
}

// startVector returns the explicit start as a numeric vector, or nil.
func (j *Job) startVector() numeric.IntVector {
	if j.Spec.Start == nil {
		return nil
	}
	return append(numeric.IntVector(nil), j.Spec.Start...)
}

// evalTimeout returns the spec's watchdog allowance or def.
func (j *Job) evalTimeout(def time.Duration) time.Duration {
	if j.Spec.EvalTimeoutMS > 0 {
		return time.Duration(j.Spec.EvalTimeoutMS) * time.Millisecond
	}
	return def
}

// timeout returns the spec's per-attempt deadline or def.
func (j *Job) timeout(def time.Duration) time.Duration {
	if j.Spec.TimeoutMS > 0 {
		return time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	return def
}
