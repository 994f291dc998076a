package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/shard/transport"
)

// Config tunes the daemon. The zero value of any field takes the
// documented default; Spool is required.
type Config struct {
	// Spool is the journal directory: one fsynced record and (while
	// running) one search checkpoint per job. Restarting a daemon on the
	// same spool resumes whatever a crash interrupted.
	Spool string
	// MaxJobs is the worker-pool size: at most this many jobs dimension
	// concurrently (default 2).
	MaxJobs int
	// QueueDepth bounds the admitted-but-not-running backlog; a full
	// queue rejects submissions with 429 (default 16).
	QueueDepth int
	// MemoryBudget caps the shared convolution-oracle cache in bytes.
	// Admission of exact-engine jobs first tries LRU eviction of idle
	// oracles, then rejects with 429 + Retry-After when live jobs pin too
	// much of the budget. 0 means unbounded.
	MemoryBudget int64
	// JobTimeout bounds each attempt of a job unless its spec says
	// otherwise; on expiry the job returns best-so-far windows marked
	// partial. 0 means no deadline.
	JobTimeout time.Duration
	// EvalTimeout is the default per-candidate watchdog allowance
	// (core.Options.EvalTimeout). 0 leaves the watchdog disarmed.
	EvalTimeout time.Duration
	// MaxRetries caps automatic retries of transient failures per job
	// unless the spec overrides it (default 2).
	MaxRetries int
	// MaxSearchWorkers clamps the per-job search parallelism a spec may
	// request (default 4).
	MaxSearchWorkers int
	// CheckpointEvery sets the durable checkpoint cadence (default 1 —
	// every commit).
	CheckpointEvery int
	// ShardWorkerArgv overrides the worker command of kind:"shard" jobs;
	// empty means this executable with -shard-worker (which windimd
	// dispatches before flag parsing).
	ShardWorkerArgv []string
	// ShardTransport overrides the worker transport of kind:"shard" jobs;
	// nil means local worker processes. Tests inject the fake transport
	// here to run shard jobs in-process.
	ShardTransport transport.Transport
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	switch {
	case c.MaxRetries < 0:
		// Negative disables retries; per-job max_retries can still ask
		// for them.
		c.MaxRetries = 0
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	}
	if c.MaxSearchWorkers <= 0 {
		c.MaxSearchWorkers = 4
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Event is one entry of a job's live progress feed, streamed as NDJSON
// from GET /jobs/{id}/events. Commit events carry the accepted base
// point and its power, straight from the search's OnCommit hook.
type Event struct {
	Seq     int       `json:"seq"`
	Type    string    `json:"type"` // queued|started|resumed|commit|retry|done|failed|canceled
	At      time.Time `json:"at"`
	Attempt int       `json:"attempt,omitempty"`
	Windows []int     `json:"windows,omitempty"`
	Power   float64   `json:"power,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// job is the in-memory side of a journal record: the record, the live
// event feed, and the cancel handle of the running attempt.
type job struct {
	id string
	// wmu serialises the job's journal writes, from the snapshot of the
	// record to the copy-back of its updated time, so the last snapshot
	// taken is the last one on disk.
	wmu sync.Mutex

	mu  sync.Mutex
	rec *Record
	// parsed and structHash serve a job that may still run: they are set
	// at admission or respooling and cleared when the job turns terminal,
	// so a finished job holds its record and no network. The worker reads
	// parsed once, under mu, when it takes the job.
	parsed       *Job
	structHash   string
	cancel       context.CancelCauseFunc // non-nil while an attempt runs
	userCanceled bool
	pinned       int64 // oracle-budget bytes reserved until terminal
	// ckptDiscarded counts checkpoints of this job that resume found
	// unusable (stale or torn beyond repair) and quarantined.
	ckptDiscarded int64
	events        []Event
	notify        chan struct{} // closed and replaced on every event
	closed        bool
	done          chan struct{}
}

func newJob(id string, parsed *Job, rec *Record) *job {
	return &job{id: id, parsed: parsed, rec: rec,
		notify: make(chan struct{}), done: make(chan struct{})}
}

// emit appends an event and wakes every streaming reader.
func (j *job) emit(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events) + 1
	ev.At = time.Now().UTC()
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// close marks the event feed complete (the job is terminal).
func (j *job) close() {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.done)
	}
	j.mu.Unlock()
}

// eventsSince returns the events after seq, a channel that closes when
// more arrive, and whether the feed is complete.
func (j *job) eventsSince(seq int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > len(j.events) {
		seq = len(j.events)
	}
	evs := append([]Event(nil), j.events[seq:]...)
	return evs, j.notify, j.closed
}

// Server is the windimd daemon: a bounded worker pool over a crash-safe
// job journal, fronted by a JSON HTTP API.
type Server struct {
	cfg     Config
	journal *Journal
	oracles *core.OracleCache
	mux     *http.ServeMux
	started time.Time

	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	queue  chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job ids in admission order
	warm     map[string]warmEntry
	draining bool
	badRecs  int

	queuedGauge    atomic.Int64
	oraclePinned   atomic.Int64 // summed estimates of live exact-engine jobs
	running        atomic.Int64
	admitted       atomic.Int64
	rejectedQueue  atomic.Int64
	rejectedMemory atomic.Int64
	retriesTotal   atomic.Int64
	panicsTotal    atomic.Int64
	resumedTotal   atomic.Int64
	watchdogTotal  atomic.Int64
	fallbackTotal  atomic.Int64
	degradedTotal  atomic.Int64
	// ckptDiscardedTotal counts checkpoints quarantined as unusable at
	// resume across all jobs (the per-job split is in Stats.JobsDetail).
	ckptDiscardedTotal atomic.Int64
}

// New opens the spool, re-admits every job a previous daemon left queued
// or running (rebuilding the warm-start index from finished records), and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	journal, err := OpenJournal(cfg.Spool)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:     cfg,
		journal: journal,
		oracles: core.NewOracleCache(cfg.MemoryBudget),
		started: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		warm:    make(map[string]warmEntry),
	}
	pending, err := s.recoverSpool()
	if err != nil {
		cancel(nil)
		return nil, err
	}
	// The queue must hold the recovered backlog in addition to the
	// admission window: restarts never drop jobs for queue depth.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queuedGauge.Add(1)
		s.queue <- j
	}
	s.mux = s.routes()
	s.wg.Add(cfg.MaxJobs)
	for range cfg.MaxJobs {
		go s.worker()
	}
	return s, nil
}

// recoverSpool scans the journal and rebuilds in-memory state. A terminal
// record becomes a closed job that holds the record alone; a done one with
// a full result also feeds the warm-start index, so it is the only kind of
// terminal record whose spec is parsed, and its parsed network is dropped
// once hashed. Queued and running records are parsed in full and become
// the pending backlog — running ones are exactly the jobs a crash
// interrupted, and their checkpoints make the re-run converge
// bit-identically to the uninterrupted run.
func (s *Server) recoverSpool() ([]*job, error) {
	records, bad, err := s.journal.Scan()
	if err != nil {
		return nil, err
	}
	s.badRecs = len(bad)
	for _, name := range bad {
		s.logf("spool: skipping unreadable record %s", name)
	}
	var pending []*job
	for _, rec := range records {
		if rec.State.Terminal() {
			j := newJob(rec.ID, nil, rec)
			j.close()
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			// Each record is parsed on its own: on a spool the open loop of
			// bench/windimd.go journalled itself, only 20% of the done
			// records repeated another's spec apart from its id, and sharing
			// their parses saved no measurable restart time.
			if rec.State == StateDone && rec.Result.full() {
				if p, err := ParseJob(rec.Spec); err == nil {
					if h := structuralHash(p.Net); h != "" {
						s.offerWarm(h, rec)
					}
				}
			}
			continue
		}
		parsed, perr := ParseJob(rec.Spec)
		if perr != nil {
			// The record was admitted by a daemon that understood it; if
			// this one cannot, failing the job beats wedging the spool.
			rec.State = StateFailed
			rec.Error = fmt.Sprintf("respooling: %v", perr)
			if werr := s.journal.Write(rec); werr != nil {
				s.logf("spool: %s: %v", rec.ID, werr)
			}
			j := newJob(rec.ID, nil, rec)
			j.close()
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			continue
		}
		wasRunning := rec.State == StateRunning
		rec.State = StateQueued
		if wasRunning {
			if werr := s.journal.Write(rec); werr != nil {
				s.logf("spool: %s: %v", rec.ID, werr)
			}
		}
		j := newJob(rec.ID, parsed, rec)
		j.structHash = structuralHash(parsed.Net)
		// Re-pin the budget reservation the previous daemon held; recovered
		// jobs are never dropped for memory, a restart merely delays new
		// admissions until they finish.
		if est, gated, eerr := s.oracleEstimate(parsed); gated && eerr == nil {
			j.pinned = est
			s.oraclePinned.Add(est)
		}
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		pending = append(pending, j)
		if wasRunning {
			s.logf("spool: resuming interrupted job %s", rec.ID)
		} else {
			s.logf("spool: re-admitting queued job %s", rec.ID)
		}
	}
	return pending, nil
}

// structuralHash fingerprints a network's structure with the arrival
// rates left out: the warm-start index must match a job whose traffic
// drifted but whose topology, routes and capacities did not. Every other
// field goes in, strings and lists length-prefixed, so two networks share
// an encoding only when they are equal but for their rates. The hash keys
// only in-memory maps, so nothing persisted depends on its encoding.
func structuralHash(n *netmodel.Network) string {
	if n == nil {
		return ""
	}
	var b []byte
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	num := func(v int) { b = binary.AppendVarint(b, int64(v)) }
	float := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	str(n.Name)
	num(len(n.Nodes))
	for _, nd := range n.Nodes {
		str(nd.Name)
	}
	num(len(n.Channels))
	for _, ch := range n.Channels {
		str(ch.Name)
		num(ch.From)
		num(ch.To)
		float(ch.Capacity)
		float(ch.Background)
		float(ch.PropDelay)
	}
	num(len(n.Classes))
	for _, cl := range n.Classes {
		str(cl.Name)
		float(cl.MeanLength)
		num(cl.Window)
		float(cl.AckDelay)
		num(len(cl.Route))
		for _, l := range cl.Route {
			num(l)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// warmEntry is the warm-start index's value for one structure: the optimum
// of the done record that finished last, with the record's updated time
// and id that rank it.
type warmEntry struct {
	windows numeric.IntVector
	updated time.Time
	id      string
}

// offerWarm feeds a done record's optimum to the warm-start index. Per
// structure the record with the latest updated time wins, ties broken by
// the greater id: the live daemon and a restart over its spool apply the
// same rule to the same journalled times, so they build the same index
// whatever order the jobs were created, finished or scanned in.
func (s *Server) offerWarm(hash string, rec *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.warm[hash]; ok && (e.updated.After(rec.Updated) ||
		e.updated.Equal(rec.Updated) && e.id >= rec.ID) {
		return
	}
	s.warm[hash] = warmEntry{
		windows: append(numeric.IntVector(nil), rec.Result.Windows...),
		updated: rec.Updated,
		id:      rec.ID,
	}
}

// startFor resolves the initial window vector of a job being admitted:
// the spec's own, else the warm-start index's optimum for its structure,
// else nil (the hop-count rule). Exhaustive shard jobs scan the whole box,
// so only pattern-search jobs take a warm start. The caller holds s.mu.
func (s *Server) startFor(p *Job, hash string) ([]int, bool) {
	if start := p.startVector(); start != nil {
		return start, false
	}
	if e, ok := s.warm[hash]; ok && !p.Sharded() && len(e.windows) == len(p.Net.Classes) {
		return append([]int(nil), e.windows...), true
	}
	return nil, false
}

// oracleEstimate returns the oracle-budget bytes a job pins from admission
// until it turns terminal, and whether the budget gates it at all: only
// in-process exact-engine jobs do, and only under a budget. Shard jobs'
// lattices live in their worker processes, slab-bounded, never in the
// daemon's oracle cache.
func (s *Server) oracleEstimate(p *Job) (est int64, gated bool, err error) {
	if !p.Spec.ExactEngine || p.Sharded() || s.oracles.Budget() <= 0 {
		return 0, false, nil
	}
	maxw := p.Spec.MaxWindow
	if maxw <= 0 {
		maxw = 64
	}
	est, err = core.EstimateOracleBytes(p.Net, maxw)
	return est, true, err
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// releasePin returns a terminal job's oracle-budget reservation.
func (s *Server) releasePin(j *job) {
	j.mu.Lock()
	pinned := j.pinned
	j.pinned = 0
	j.mu.Unlock()
	if pinned > 0 {
		s.oraclePinned.Add(-pinned)
	}
}

// journalWrite persists a job's current record, and hands the time
// Journal.Write stamped on it back to the job, so GET /jobs/{id} reports
// the updated time the record file holds.
func (s *Server) journalWrite(j *job) error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	j.mu.Lock()
	rec := *j.rec
	j.mu.Unlock()
	if err := s.journal.Write(&rec); err != nil {
		return err
	}
	j.mu.Lock()
	j.rec.Updated = rec.Updated
	j.mu.Unlock()
	return nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Drain stops admissions, cancels every running job (their best-so-far
// state is already checkpointed), waits for the pool to idle (bounded by
// ctx), and rewrites interrupted jobs back to queued so the next daemon
// picks them up. Safe to call once; returns ctx.Err() if the pool did
// not settle in time.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel(errDrain)
	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		interrupted := j.rec.State == StateRunning
		if interrupted {
			j.rec.State = StateQueued
		}
		j.mu.Unlock()
		if interrupted {
			if err := s.journalWrite(j); err != nil {
				s.logf("drain: %s: %v", j.id, err)
			}
		}
	}
	return nil
}

// Kill aborts the daemon as a crash would: running jobs are cancelled
// mid-attempt and NO journal transitions are written, leaving the spool
// exactly as a SIGKILL at that instant. Tests use it to exercise the
// restart-resume path in-process.
func (s *Server) Kill() {
	s.cancel(errCrash)
	s.wg.Wait()
}

// ---- HTTP API ----

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// ServeHTTP makes the Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func randomID() string {
	var b [6]byte
	rand.Read(b[:])
	return "job-" + hex.EncodeToString(b[:])
}

// handleSubmit is the admission path: parse and validate, check the
// daemon is accepting, the id is free, the oracle memory budget can fit
// the job (evicting idle oracles first), and the queue has room — in
// that order, so every rejection names its real cause. The record is
// journalled durably before the 202 goes out: an accepted job survives
// any crash after the response.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(data) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", maxSpecBytes)
		return
	}
	parsed, err := ParseJob(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The per-spec work runs before the server lock, which every other
	// admission and lookup waits on; its verdict still comes in the gate
	// order below.
	hash := structuralHash(parsed.Net)
	est, gated, estErr := s.oracleEstimate(parsed)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	id := parsed.Spec.ID
	if id == "" {
		id = randomID()
		for s.jobs[id] != nil {
			id = randomID()
		}
	} else if s.jobs[id] != nil {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %q already exists", id)
		return
	}

	// Admission gate 1: the exact-engine memory budget. Every live
	// exact-engine job pins its estimated oracle lattice size against the
	// budget until it reaches a terminal state; a job that can never fit
	// is refused outright, one that cannot fit NOW — because running jobs
	// pin the rest — is pushed back with Retry-After rather than letting
	// the oracle cache blow past the budget mid-run.
	var pinBytes int64
	if gated {
		budget := s.oracles.Budget()
		if estErr != nil {
			s.mu.Unlock()
			writeError(w, http.StatusBadRequest, "estimating oracle size: %v", estErr)
			return
		}
		if est > budget {
			s.mu.Unlock()
			writeError(w, http.StatusUnprocessableEntity,
				"job needs an estimated %d oracle bytes; the budget is %d", est, budget)
			return
		}
		if pinned := s.oraclePinned.Load(); pinned+est > budget {
			s.mu.Unlock()
			s.rejectedMemory.Add(1)
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests,
				"oracle memory budget exhausted (%d of %d bytes pinned by live jobs; job needs %d)",
				pinned, budget, est)
			return
		}
		pinBytes = est
		s.oraclePinned.Add(est)
		// Make room in fact, not only in accounting: push finished jobs'
		// idle oracles out of the cache (running ones keep theirs alive
		// through their engines either way).
		s.oracles.EvictTo(budget - s.oraclePinned.Load())
	}

	// Admission gate 2: the bounded queue.
	if s.queuedGauge.Load() >= int64(s.cfg.QueueDepth) {
		s.mu.Unlock()
		s.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued)", s.cfg.QueueDepth)
		return
	}

	rec := &Record{
		ID:      id,
		State:   StateQueued,
		Spec:    json.RawMessage(parsed.Raw),
		Created: time.Now().UTC(),
	}
	// Online re-dimensioning: when the same structure was solved before,
	// start from its optimum instead of the hop-count rule — when traffic
	// drifted modestly the new optimum is nearby.
	rec.Start, rec.WarmStart = s.startFor(parsed, hash)
	j := newJob(id, parsed, rec)
	j.structHash = hash
	j.pinned = pinBytes
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queuedGauge.Add(1)
	s.mu.Unlock()

	if err := s.journalWrite(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		// Other admissions may have appended after this one.
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
		s.queuedGauge.Add(-1)
		s.mu.Unlock()
		s.releasePin(j)
		writeError(w, http.StatusInternalServerError, "journalling job: %v", err)
		return
	}
	s.admitted.Add(1)
	j.emit(Event{Type: "queued"})
	select {
	case s.queue <- j:
	default:
		// Unreachable while the gauge invariant holds (the channel has
		// QueueDepth capacity beyond the recovered backlog).
		s.logf("job %s: queue overflow past admission gate", id)
	}
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "state": StateQueued, "warm_start": rec.WarmStart,
	})
}

// jobSummary is one row of GET /jobs.
type jobSummary struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Attempts int       `json:"attempts,omitempty"`
	Retries  int       `json:"retries,omitempty"`
	Error    string    `json:"error,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobSummary, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, jobSummary{
			ID: j.id, State: j.rec.State, Created: j.rec.Created,
			Attempts: j.rec.Attempts, Retries: len(j.rec.Retries), Error: j.rec.Error,
		})
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	rec := *j.rec
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, &rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	switch {
	case j.rec.State.Terminal():
		state := j.rec.State
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "state": state})
	case j.cancel != nil:
		cancel := j.cancel
		j.userCanceled = true
		j.mu.Unlock()
		cancel(errCanceled)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": "canceling"})
	case j.rec.State == StateQueued:
		// Terminal before the lock drops, so a worker taking the job from
		// the queue now skips it.
		j.userCanceled = true
		j.rec.State = StateCanceled
		j.rec.Error = errCanceled.Error()
		j.mu.Unlock()
		s.finishTerminal(j, StateCanceled, errCanceled.Error())
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "state": StateCanceled})
	default:
		// Running, but the attempt has not installed its cancel handle
		// yet; the flag is honoured the moment it does.
		j.userCanceled = true
		j.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": "canceling"})
	}
}

// handleEvents streams a job's progress as NDJSON: everything so far,
// then live events as the search commits base points, until the job ends
// or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seq := 0
	for {
		evs, notify, closed := j.eventsSince(seq)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
			seq = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Stats is the GET /stats payload: queue and pool occupancy, admission
// and resilience counters, and the oracle cache's budget position.
type Stats struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Draining      bool                  `json:"draining"`
	Jobs          map[State]int         `json:"jobs"`
	Queued        int64                 `json:"queued"`
	QueueDepth    int                   `json:"queue_depth"`
	Running       int64                 `json:"running"`
	WorkerSlots   int                   `json:"worker_slots"`
	Admitted      int64                 `json:"admitted"`
	RejectedQueue int64                 `json:"rejected_queue"`
	RejectedMem   int64                 `json:"rejected_memory"`
	Retries       int64                 `json:"retries"`
	Panics        int64                 `json:"panics"`
	Resumed       int64                 `json:"resumed"`
	WatchdogTrips int64                 `json:"watchdog_trips"`
	Fallbacks     int64                 `json:"fallbacks_rescued"`
	Degraded      int64                 `json:"degraded_scenarios"`
	OracleCache   core.OracleCacheStats `json:"oracle_cache"`
	OracleBudget  int64                 `json:"oracle_budget"`
	OraclePinned  int64                 `json:"oracle_pinned"`
	BadRecords    int                   `json:"bad_records,omitempty"`
	// CheckpointsDiscarded counts checkpoints quarantined as unusable at
	// resume across all jobs since the daemon started.
	CheckpointsDiscarded int64 `json:"checkpoints_discarded"`
	// JobsDetail breaks the resilience counters down per job, in admission
	// order: retries taken, watchdog trips and fallback rescues of the
	// finished result, and checkpoints quarantined at resume.
	JobsDetail []JobStat `json:"jobs_detail"`
}

// JobStat is one job's row in Stats.JobsDetail.
type JobStat struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Attempts int    `json:"attempts"`
	Retries  int    `json:"retries"`
	// WatchdogTrips and FallbacksRescued come from the job's result and
	// are populated once it finishes.
	WatchdogTrips    int64 `json:"watchdog_trips"`
	FallbacksRescued int64 `json:"fallbacks_rescued"`
	// CheckpointsDiscarded counts this job's checkpoints that resume found
	// unusable and quarantined.
	CheckpointsDiscarded int64 `json:"checkpoints_discarded"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		UptimeSeconds:        time.Since(s.started).Seconds(),
		Jobs:                 make(map[State]int),
		Queued:               s.queuedGauge.Load(),
		QueueDepth:           s.cfg.QueueDepth,
		Running:              s.running.Load(),
		WorkerSlots:          s.cfg.MaxJobs,
		Admitted:             s.admitted.Load(),
		RejectedQueue:        s.rejectedQueue.Load(),
		RejectedMem:          s.rejectedMemory.Load(),
		Retries:              s.retriesTotal.Load(),
		Panics:               s.panicsTotal.Load(),
		Resumed:              s.resumedTotal.Load(),
		WatchdogTrips:        s.watchdogTotal.Load(),
		Fallbacks:            s.fallbackTotal.Load(),
		Degraded:             s.degradedTotal.Load(),
		OracleCache:          s.oracles.Stats(),
		OracleBudget:         s.oracles.Budget(),
		OraclePinned:         s.oraclePinned.Load(),
		CheckpointsDiscarded: s.ckptDiscardedTotal.Load(),
	}
	s.mu.Lock()
	st.Draining = s.draining
	st.BadRecords = s.badRecs
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	st.JobsDetail = make([]JobStat, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		st.Jobs[j.rec.State]++
		row := JobStat{
			ID:                   j.id,
			State:                j.rec.State,
			Attempts:             j.rec.Attempts,
			Retries:              len(j.rec.Retries),
			CheckpointsDiscarded: j.ckptDiscarded,
		}
		if j.rec.Result != nil {
			row.WatchdogTrips = j.rec.Result.WatchdogTrips
			row.FallbacksRescued = j.rec.Result.FallbacksRescued
		}
		j.mu.Unlock()
		st.JobsDetail = append(st.JobsDetail, row)
	}
	writeJSON(w, http.StatusOK, &st)
}
