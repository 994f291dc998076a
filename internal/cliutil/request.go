package cliutil

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/shard"
)

// MaxSpecBytes bounds a job submission; a dimensioning request is a few
// KB of topology and scenarios, never megabytes.
const MaxSpecBytes = 1 << 20

// JobSpec is a dimensioning request: the network, its traffic, the
// evaluator, the objective and the window bound of one WINDIM run, plus
// how to run it. It is windimd's JSON job body, and windim and
// windim-shard point their flags at its fields, so every front end
// resolves a request in the same two steps: ResolveNetwork, then Resolve.
//
// Exactly one of Network (an inline netmodel spec), Example (a built-in
// name) or Topo (a generator spec, see ParseTopo) names the network.
// Every other field is optional. An omitted field means what the matching
// flag's default means; where the spellings differ (workers 0 against
// windim's -workers 1, an omitted evaluator against -evaluator sigma)
// both resolve to the same search.
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
	// MaxWindow bounds every window from above (0 = core.DefaultMaxWindow).
	MaxWindow int `json:"max_window,omitempty"`
	// Start overrides the initial window vector. When absent windimd
	// warm-starts from the last optimum it solved for the same network
	// structure (if any), falling back to the hop-count rule.
	Start []int `json:"start,omitempty"`
	// Workers parallelises candidate evaluation inside this job's search
	// (windimd clamps it; the trajectory is worker-count-independent).
	Workers int `json:"workers,omitempty"`
	// ExactEngine serves exact evaluations from a shared convolution
	// lattice (windimd's memory-budgeted oracle cache).
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

// Job is a resolved request: the spec as given, the network, the scenario
// set and the parsed enum names. Options and ShardOptions turn it into
// the options every front end starts from.
type Job struct {
	Spec JobSpec
	Net  *netmodel.Network
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

// ParseJob decodes and fully validates a JSON request (a windimd job
// submission): unknown fields are rejected (a misspelled option silently
// ignored is a misdimensioned network), then the request is resolved
// through ResolveNetwork and Resolve like any front end's. Malformed
// input of any shape returns an error, never a panic.
func ParseJob(data []byte) (*Job, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("cliutil: job spec is %d bytes; the limit is %d", len(data), MaxSpecBytes)
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("cliutil: parsing job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cliutil: trailing data after job spec")
	}
	if spec.ID != "" && !validID(spec.ID) {
		return nil, fmt.Errorf("cliutil: job id %q: need 1-64 characters of [A-Za-z0-9._-], not starting with a dot", spec.ID)
	}
	// A flag always carries its default, so only a JSON request can name
	// a criterion without the scenarios it would apply to.
	if spec.Robust != "" && len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("cliutil: robust criterion given without scenarios")
	}
	n, err := spec.ResolveNetwork()
	if err != nil {
		return nil, err
	}
	return spec.Resolve(n)
}

// ReadSpec sets Network to the contents of the spec file at path; an
// empty path leaves it unset.
func (s *JobSpec) ReadSpec(path string) error {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cliutil: reading spec: %w", err)
	}
	s.Network = data
	return nil
}

// ResolveNetwork is the first resolution step: it builds the network the
// request names (inline spec, example, or topology with its seed),
// applies Rates and validates the result. A front end may transform the
// network (windim's -reduce) before the second step, Resolve.
func (s *JobSpec) ResolveNetwork() (*netmodel.Network, error) {
	sources := 0
	for _, set := range []bool{len(s.Network) > 0, s.Example != "", s.Topo != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("cliutil: exactly one of network (-spec FILE), example (-example NAME), topo (-topo SPEC) must be given")
	}
	if s.Rates != nil && s.Topo != "" {
		return nil, fmt.Errorf("cliutil: rates do not apply to generated topologies (their rates are utilisation-scaled)")
	}
	var n *netmodel.Network
	var err error
	switch {
	case len(s.Network) > 0:
		n, err = netmodel.ParseSpec(s.Network)
	case s.Example != "":
		n, err = builtin(s.Example)
	default:
		n, err = ParseTopo(s.Topo, s.TopoSeed)
	}
	if err != nil {
		return nil, err
	}
	if s.Rates != nil {
		if len(s.Rates) != len(n.Classes) {
			return nil, fmt.Errorf("cliutil: %d rates for %d classes", len(s.Rates), len(n.Classes))
		}
		for r := range n.Classes {
			n.Classes[r].Rate = s.Rates[r]
		}
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("cliutil: network invalid: %w", err)
	}
	return n, nil
}

// Resolve is the second resolution step: it parses the request's
// scenarios and enum names against n and checks every other field,
// vector lengths against n's classes included.
func (s *JobSpec) Resolve(n *netmodel.Network) (*Job, error) {
	job := &Job{Spec: *s, Net: n}
	var err error
	// Tested against nil, not empty: an empty -scenarios file is an error.
	if s.Scenarios != nil {
		if job.Scenarios, err = core.ParseScenarios(s.Scenarios, n); err != nil {
			return nil, err
		}
	}
	// Omitted enum fields take their documented defaults.
	if job.Kind, err = core.ParseRobustKind(cmp.Or(s.Robust, "minmax")); err != nil {
		return nil, err
	}
	if job.Evaluator, err = core.ParseEvaluator(cmp.Or(s.Evaluator, "sigma")); err != nil {
		return nil, err
	}
	if job.Objective, err = core.ParseObjective(cmp.Or(s.Objective, "power")); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "", "dimension":
		if s.Shard != nil {
			return nil, fmt.Errorf("cliutil: shard settings require kind \"shard\"")
		}
	case "shard":
		// The sharded coordinator runs the exhaustive search over the full
		// window box: scenario sets, start vectors, and the per-candidate
		// watchdog belong to the pattern search and would be silently
		// meaningless here — reject rather than ignore.
		if len(s.Scenarios) > 0 {
			return nil, fmt.Errorf("cliutil: kind \"shard\" does not take scenarios (the exhaustive search is not robust)")
		}
		if s.Start != nil {
			return nil, fmt.Errorf("cliutil: kind \"shard\" does not take a start vector (the exhaustive search scans the whole box)")
		}
		if s.EvalTimeoutMS != 0 {
			return nil, fmt.Errorf("cliutil: kind \"shard\" does not take eval_timeout_ms (the coordinator's slab deadline handles stuck workers)")
		}
		if sh := s.Shard; sh != nil {
			if sh.Procs < 0 || sh.Slabs < 0 || sh.AllowLost < 0 || sh.MaxHostsLost < 0 ||
				sh.LeaseTTLMS < 0 || sh.SlabDeadlineMS < 0 {
				return nil, fmt.Errorf("cliutil: negative shard settings")
			}
			if sh.Axis != nil && (*sh.Axis < -1 || *sh.Axis >= len(n.Classes)) {
				return nil, fmt.Errorf("cliutil: shard axis %d out of range for %d classes", *sh.Axis, len(n.Classes))
			}
			if sh.SlabRetries != nil && *sh.SlabRetries < 0 {
				return nil, fmt.Errorf("cliutil: negative slab_retries %d", *sh.SlabRetries)
			}
		}
	default:
		return nil, fmt.Errorf("cliutil: unknown job kind %q (want dimension or shard)", s.Kind)
	}
	if s.MaxWindow < 0 {
		return nil, fmt.Errorf("cliutil: negative max_window %d", s.MaxWindow)
	}
	if s.Start != nil {
		if len(s.Start) != len(n.Classes) {
			return nil, fmt.Errorf("cliutil: start vector has %d entries for %d classes", len(s.Start), len(n.Classes))
		}
		for i, w := range s.Start {
			if w < 1 {
				return nil, fmt.Errorf("cliutil: start window %d at index %d; windows are at least 1", w, i)
			}
		}
	}
	if s.Workers < 0 {
		return nil, fmt.Errorf("cliutil: negative workers %d", s.Workers)
	}
	for name, ms := range map[string]int64{"eval_timeout_ms": s.EvalTimeoutMS, "timeout_ms": s.TimeoutMS} {
		if ms < 0 {
			return nil, fmt.Errorf("cliutil: negative %s %d", name, ms)
		}
	}
	if s.MaxRetries != nil && *s.MaxRetries < 0 {
		return nil, fmt.Errorf("cliutil: negative max_retries %d", *s.MaxRetries)
	}
	if s.DegradeAfter < 0 || s.MinScenarios < 0 {
		return nil, fmt.Errorf("cliutil: negative degradation settings")
	}
	if s.CheckpointEvery < 0 {
		return nil, fmt.Errorf("cliutil: negative checkpoint_every %d", s.CheckpointEvery)
	}
	return job, nil
}

// Options returns the core options the request asks for. It is the one
// place request fields become core.Options; a front end adds only what
// the request does not carry (windim's -search and -no-fallback, the
// daemon's worker clamp, checkpoint path and warm start).
func (j *Job) Options() core.Options {
	opts := core.Options{
		Evaluator:       j.Evaluator,
		Objective:       j.Objective,
		MaxWindow:       j.Spec.MaxWindow,
		Workers:         j.Spec.Workers,
		ExactEngine:     j.Spec.ExactEngine,
		EvalTimeout:     time.Duration(j.Spec.EvalTimeoutMS) * time.Millisecond,
		DegradeAfter:    j.Spec.DegradeAfter,
		MinScenarios:    j.Spec.MinScenarios,
		CheckpointEvery: j.Spec.CheckpointEvery,
	}
	if j.Spec.Start != nil {
		opts.InitialWindows = append(numeric.IntVector(nil), j.Spec.Start...)
	}
	if j.Sharded() {
		opts.Search = core.ExhaustiveSearch
	}
	return opts
}

// ShardOptions maps the request's shard knobs onto the coordinator's
// options; omitted knobs take the coordinator defaults.
func (j *Job) ShardOptions() shard.Options {
	opts := shard.Options{Axis: -1, MaxRetries: -1}
	sh := j.Spec.Shard
	if sh == nil {
		return opts
	}
	opts.Procs, opts.Slabs = sh.Procs, sh.Slabs
	opts.AllowLost, opts.MaxHostsLost = sh.AllowLost, sh.MaxHostsLost
	if sh.Axis != nil {
		opts.Axis = *sh.Axis
	}
	if sh.SlabRetries != nil {
		opts.MaxRetries = *sh.SlabRetries
	}
	opts.LeaseTTL = time.Duration(sh.LeaseTTLMS) * time.Millisecond
	opts.SlabDeadline = time.Duration(sh.SlabDeadlineMS) * time.Millisecond
	return opts
}
