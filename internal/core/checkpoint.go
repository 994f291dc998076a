package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/pattern"
)

// ErrResume marks a rejected Options.ResumePath: the checkpoint file is
// missing, unreadable, corrupt, or was written for a different model or
// options. Callers that manage checkpoints themselves (the windimd
// service) detect it with errors.Is, discard the stale file and restart
// the search fresh instead of failing the job.
var ErrResume = errors.New("core: resume rejected")

// modelHash fingerprints everything a checkpoint's cached objective values
// and replayed trajectory depend on: the network spec, evaluator,
// objective, search box and start, solver tuning and — for robust runs —
// the scenario set and criterion. Two runs with equal hashes compute
// identical objectives at every lattice point, so their checkpoints are
// interchangeable; any difference makes resume unsafe and is rejected
// before a single cached value is used.
//
// Deliberately excluded: Workers (the trajectory is bit-identical at any
// worker count), Context and checkpoint paths (orchestration, not
// values), and EvalTimeout (the watchdog can reroute a slow candidate to
// a fallback tier, which already costs cross-machine reproducibility
// whether or not a checkpoint is involved — see Options.EvalTimeout).
func modelHash(n *netmodel.Network, opts Options, scenarios []Scenario, robust string) (string, error) {
	spec, err := n.MarshalSpec()
	if err != nil {
		return "", fmt.Errorf("core: hashing model: %w", err)
	}
	h := sha256.New()
	h.Write(spec)
	// maxh=0 and step=() stand for the search's fixed KMAX and unit
	// starting step; they keep the hash equal to that of checkpoints
	// written while those two were options, so such files still resume.
	fmt.Fprintf(h, "|eval=%v|obj=%v|maxw=%d|maxh=0|coldstart=%t|nofallback=%t",
		opts.Evaluator, opts.Objective, opts.MaxWindow,
		opts.ColdStart, opts.DisableFallback)
	if opts.ExactEngine {
		// Convolution and exact-MVA values agree only to rounding, so
		// engine-backed caches are not interchangeable with plain ones.
		// Appended conditionally to leave pre-existing hashes unchanged.
		fmt.Fprintf(h, "|exactengine=true")
	}
	fmt.Fprintf(h, "|start=%v|step=()|buffers=%v",
		opts.InitialWindows, opts.BufferLimits)
	fmt.Fprintf(h, "|mva tol=%g damp=%g maxiter=%d",
		opts.MVA.Tol, opts.MVA.Damping, opts.MVA.MaxIter)
	fmt.Fprintf(h, "|robust=%s", robust)
	for _, sc := range scenarios {
		fmt.Fprintf(h, "|scenario %q cap=%v rate=%v w=%g",
			sc.Name, sc.CapacityScale, sc.RateScale, sc.Weight)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// searchCheckpointing resolves Options.CheckpointPath/ResumePath into the
// pattern-search checkpoint configuration and the loaded, hash-verified
// resume state. Both returns are nil when neither path is set.
func searchCheckpointing(n *netmodel.Network, opts Options, scenarios []Scenario, robust string) (*pattern.CheckpointOptions, *pattern.Checkpoint, error) {
	if opts.CheckpointPath == "" && opts.ResumePath == "" {
		return nil, nil, nil
	}
	if opts.Search == ExhaustiveSearch {
		// The exhaustive scan has no commit points (and no use for a memo
		// cache); refusing beats silently running without durability.
		return nil, nil, errors.New("core: checkpoints support the pattern search only")
	}
	hash, err := modelHash(n, opts, scenarios, robust)
	if err != nil {
		return nil, nil, err
	}
	var ckpt *pattern.CheckpointOptions
	if opts.CheckpointPath != "" {
		ckpt = &pattern.CheckpointOptions{
			Path:      opts.CheckpointPath,
			Every:     opts.CheckpointEvery,
			ModelHash: hash,
		}
	}
	var resume *pattern.Checkpoint
	if opts.ResumePath != "" {
		resume, err = pattern.LoadCheckpoint(opts.ResumePath)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrResume, err)
		}
		if resume.ModelHash != hash {
			return nil, nil, fmt.Errorf("%w: checkpoint %s was written for a different model or options (hash %.12s…, this run is %.12s…)",
				ErrResume, opts.ResumePath, resume.ModelHash, hash)
		}
	}
	return ckpt, resume, nil
}
