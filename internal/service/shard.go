package service

import (
	"context"
	"fmt"
	"os"

	"repro/internal/shard"
)

// shardWorkerArgv resolves the worker command of kind:"shard" jobs: the
// configured override, or this very executable in worker mode (windimd
// dispatches its hidden -shard-worker flag before anything else).
func (s *Server) shardWorkerArgv() ([]string, error) {
	if len(s.cfg.ShardWorkerArgv) > 0 {
		return s.cfg.ShardWorkerArgv, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("service: resolving shard worker binary: %w", err)
	}
	return []string{exe, "-shard-worker"}, nil
}

// dimensionSharded runs one attempt of a kind:"shard" job through the
// sharded-search coordinator (internal/shard). The coordinator's spool
// lives next to the job's journal record, so the daemon's own resume
// machinery composes with the coordinator's: a drain, crash, or
// transient failure re-runs the coordinator over the same spool, which
// recovers finished slabs, adopts live leases, and resumes interrupted
// slabs from their checkpoints — converging to the same bit-identical
// result an uninterrupted run would have produced.
func (s *Server) dimensionSharded(j *job, p *Job, ctx context.Context) (*JobResult, error) {
	argv, err := s.shardWorkerArgv()
	if err != nil {
		return nil, err
	}
	copts := p.Options()
	copts.Workers = min(copts.Workers, s.cfg.MaxSearchWorkers)
	sopts := p.ShardOptions()
	sopts.Dir = s.journal.ShardDir(j.id)
	sopts.WorkerArgv = argv
	sopts.Transport = s.cfg.ShardTransport
	sopts.Context = ctx
	sopts.OnEvent = func(ev shard.Event) {
		// Fold the coordinator's stream into the job's event feed under a
		// "shard-" type prefix; seq and time are re-stamped there.
		j.emit(Event{Type: "shard-" + ev.Type, Attempt: ev.Attempt,
			Windows: append([]int(nil), ev.Windows...), Error: ev.Error})
	}
	sopts.Logf = func(format string, args ...any) {
		s.logf("job "+j.id+": "+format, args...)
	}
	res, err := shard.Run(p.Net, copts, sopts)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Windows:      append([]int(nil), res.Windows...),
		Evaluations:  res.Evaluations,
		NonConverged: res.NonConverged,
	}
	if res.Metrics != nil {
		out.Power = res.Metrics.Power
		out.Throughput = res.Metrics.Throughput
		out.Delay = res.Metrics.Delay
	}
	// Lost slabs and hosts surface through the same degradation channel
	// robust jobs use, so /stats and job records need no new vocabulary.
	for _, d := range res.Degraded {
		out.Degraded = append(out.Degraded, fmt.Sprintf("slab %d: %s", d.Slab, d.Reason))
	}
	for _, h := range res.HostsLost {
		out.Degraded = append(out.Degraded, fmt.Sprintf("host %s: abandoned, slabs redistributed", h))
	}
	return out, nil
}
