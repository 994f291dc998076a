// Package service implements windimd: a crash-safe, multi-tenant
// dimensioning daemon around the WINDIM machinery in internal/core.
//
// A job is a dimensioning request (cliutil.JobSpec: a network, an
// optional scenario set, and search options), submitted as JSON over
// HTTP. Jobs run on a bounded worker pool with admission control (queue
// depth, a global convolution-oracle memory budget with LRU eviction),
// per-job fault containment (context deadlines, the per-candidate
// watchdog, panic recovery, retries with exponential backoff), and a
// crash-safe journal: every job persists as an fsynced record in a spool
// directory next to its pattern-search checkpoint, so a killed daemon
// resumes interrupted jobs on restart and converges to the bit-identical
// result an uninterrupted run would have produced.
package service

import "repro/internal/cliutil"

// The daemon's job types are the shared request types of internal/cliutil,
// the ones windim and windim-shard resolve their flags into.
type (
	JobSpec = cliutil.JobSpec
	Job     = cliutil.Job
)

// ParseJob decodes and validates a job submission (see cliutil.ParseJob).
func ParseJob(data []byte) (*Job, error) { return cliutil.ParseJob(data) }
