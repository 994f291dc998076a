package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/numeric"
	"repro/internal/pattern"
)

// Worker process exit codes, part of the coordinator↔worker contract.
const (
	// ExitOK: slab scanned to completion, result written durably.
	ExitOK = 0
	// ExitFail: the worker died (crash, bad spool, evaluation error).
	ExitFail = 1
	// ExitUsage: the environment contract was violated (missing/bad
	// SHARD_DIR or SHARD_SLAB) — retrying cannot help.
	ExitUsage = 2
	// ExitDrained: the worker was asked to stop (SIGTERM/SIGINT) and
	// exited cleanly with every completed stride checkpointed.
	ExitDrained = 3
	// ExitFenced: the worker lost slab ownership (its lease was
	// superseded, or it could not renew within the lease TTL) and
	// self-terminated without writing a result. The slab belongs to a
	// newer epoch; this exit needs no retry accounting of its own.
	ExitFenced = 4
)

// Environment contract of worker mode. The coordinator launches the
// worker binary with these set; SHARD_FAULT is the fault-injection hook
// used by the chaos tests and the CI chaos smoke job.
const (
	// EnvDir is the spool directory (must contain manifest.json).
	EnvDir = "SHARD_DIR"
	// EnvSlab is the slab index to scan.
	EnvSlab = "SHARD_SLAB"
	// EnvEpoch is the fencing epoch of this launch (>= 1, strictly
	// increasing per slab across launches). Defaults to 1 when unset so a
	// hand-launched worker still participates in fencing.
	EnvEpoch = "SHARD_EPOCH"
	// EnvLeaseTTL is the lease renewal deadline in milliseconds; a worker
	// that cannot re-prove ownership for this long self-terminates with
	// ExitFenced.
	EnvLeaseTTL = "SHARD_LEASE_TTL_MS"
	// EnvOwner is a diagnostic owner label stamped into the lease
	// (host/pid by default); fencing decisions never depend on it.
	EnvOwner = "SHARD_OWNER"
	// EnvFault is a comma-separated list of kind:slabN fault injections,
	// e.g. "crash:slab2,hang:slab0". Kinds: crash (exit 1 after the first
	// checkpointed stride, once), hang (stall silently mid-slab, once),
	// torn (write a torn result file, once), crash-always (crash after
	// every first stride, never completing), partition (lose the lease
	// file after the first checkpointed stride: heartbeats stop, renewals
	// fail, the worker must self-fence, once), zombie (violate the
	// protocol after the first checkpointed stride: skip all fencing,
	// finish the scan, wait to be superseded, then write a stale-epoch
	// result — the write the merge must reject, once). One-shot kinds arm
	// a marker file in the spool so the fault fires on exactly one
	// attempt. crash and crash-always call os.Exit and are only safe on
	// process transports, never in-process workers.
	EnvFault = "SHARD_FAULT"
)

// DefaultLeaseTTL is the lease renewal deadline used when the contract
// does not specify one.
const DefaultLeaseTTL = 10 * time.Second

// ErrDrained reports a worker stopped by SIGTERM/SIGINT with its
// progress checkpointed; the coordinator (or a rerun) resumes the slab
// from the checkpoint.
var ErrDrained = errors.New("shard: worker drained")

// WorkerMain is the entry point of worker mode (`windim -shard-worker`
// and cmd/windim-shard's hidden worker flag): the process environment
// plus signal-driven drain, mapped onto the exit-code contract.
func WorkerMain() int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	return WorkerEnvMain(ctx, os.Environ())
}

// WorkerEnvMain runs worker mode against an explicit contract
// environment and returns the exit code without exiting the process.
// Its signature is transport.WorkerFunc: the fake transport launches
// workers in-process through it, with ctx cancellation standing in for
// process signals.
func WorkerEnvMain(ctx context.Context, env []string) int {
	cfg, err := parseWorkerEnv(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard-worker: %v\n", err)
		return ExitUsage
	}
	if err := runWorker(ctx, cfg); err != nil {
		switch {
		case errors.Is(err, ErrDrained):
			fmt.Fprintf(os.Stderr, "shard-worker: slab %d drained\n", cfg.slab)
			return ExitDrained
		case errors.Is(err, ErrFenced):
			fmt.Fprintf(os.Stderr, "shard-worker: slab %d fenced: %v\n", cfg.slab, err)
			return ExitFenced
		}
		fmt.Fprintf(os.Stderr, "shard-worker: slab %d: %v\n", cfg.slab, err)
		return ExitFail
	}
	return ExitOK
}

// workerConfig is the parsed environment contract.
type workerConfig struct {
	dir   string
	slab  int
	epoch int
	ttl   time.Duration
	owner string
	fault string // fault kind armed for this slab, "" for none
}

func parseWorkerEnv(env []string) (workerConfig, error) {
	cfg := workerConfig{epoch: 1, ttl: DefaultLeaseTTL}
	cfg.dir = envLookup(env, EnvDir)
	slabStr := envLookup(env, EnvSlab)
	if cfg.dir == "" || slabStr == "" {
		return cfg, fmt.Errorf("%s and %s must be set", EnvDir, EnvSlab)
	}
	slab, err := strconv.Atoi(slabStr)
	if err != nil || slab < 0 {
		return cfg, fmt.Errorf("bad %s=%q", EnvSlab, slabStr)
	}
	cfg.slab = slab
	if s := envLookup(env, EnvEpoch); s != "" {
		e, err := strconv.Atoi(s)
		if err != nil || e < 1 {
			return cfg, fmt.Errorf("bad %s=%q", EnvEpoch, s)
		}
		cfg.epoch = e
	}
	if s := envLookup(env, EnvLeaseTTL); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms <= 0 {
			return cfg, fmt.Errorf("bad %s=%q", EnvLeaseTTL, s)
		}
		cfg.ttl = time.Duration(ms) * time.Millisecond
	}
	cfg.owner = envLookup(env, EnvOwner)
	if cfg.owner == "" {
		host, _ := os.Hostname()
		cfg.owner = fmt.Sprintf("%s/pid%d", host, os.Getpid())
	}
	cfg.fault = parseFaults(envLookup(env, EnvFault))[slab]
	return cfg, nil
}

// envLookup finds key in a KEY=VALUE list (last entry wins, matching
// process-environment semantics).
func envLookup(env []string, key string) string {
	val := ""
	for _, kv := range env {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			val = v
		}
	}
	return val
}

// runWorker scans one slab of the manifest: acquire the slab lease for
// this launch's epoch, resume from the slab's checkpoint if one exists,
// scan the remaining strides (one full sub-box per value of the
// partition axis, checkpointing durably after each, re-proving lease
// ownership before each), and write the slab result durably — after one
// final proof of ownership, because a result written without one is
// exactly what a zombie produces. Exits with ErrDrained on ctx
// cancellation and ErrFenced on lost ownership.
func runWorker(ctx context.Context, cfg workerConfig) error {
	dir, slab := cfg.dir, cfg.slab
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("shard: reading manifest: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return err
	}
	hash := Hash(data)
	if slab >= len(m.Slabs) {
		return fmt.Errorf("shard: slab %d out of range (%d slabs)", slab, len(m.Slabs))
	}
	n, err := m.network()
	if err != nil {
		return err
	}
	opts, err := m.coreOptions()
	if err != nil {
		return err
	}
	opts.Context = ctx
	lo, hi := m.slabBox(slab)
	if opts.ExactEngine {
		// Bound the convolution oracle to the slab's own corner: the
		// lattice never grows beyond what this slab can query, and any
		// candidate an unbounded oracle would also have declined falls
		// through to the exact recursion identically — so slab values
		// stay bit-identical to the single-process run.
		opts.OracleBox = hi.Clone()
	}

	// Ownership before any durable slab write: a launch superseded before
	// it started must not touch the checkpoint.
	lease, err := acquireLease(dir, slab, hash, cfg.epoch, cfg.owner, cfg.ttl)
	if err != nil {
		return err
	}
	fence := &fenceState{dir: dir, lease: lease, ttl: cfg.ttl, lastProof: time.Now()}

	st, err := loadSlabState(dir, slab, hash, len(m.Lo))
	if err != nil {
		return err
	}
	if st.next < lo[m.Axis] {
		st.next = lo[m.Axis]
	}

	ckpt, err := openSlabCkpt(dir, slab, hash, cfg.epoch, len(m.Lo), st)
	if err != nil {
		return err
	}
	defer ckpt.Close()

	scanner, err := core.NewBoxScanner(n, opts)
	if err != nil {
		return err
	}

	for v := st.next; v <= hi[m.Axis]; v++ {
		if !fence.silent() {
			writeHeartbeat(dir, slab, v)
		}
		if err := fence.renew(); err != nil {
			return err
		}
		if cfg.fault == "hang" && v > lo[m.Axis] && fireOnce(dir, slab, "hang") {
			// Simulate a stuck solve: stop advancing the heartbeat and
			// block until the coordinator's deadline kills us (or a
			// drain signal arrives).
			fmt.Fprintf(os.Stderr, "shard-worker: fault hang armed on slab %d at stride %d\n", slab, v)
			select {
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrDrained, context.Cause(ctx))
			case <-time.After(10 * time.Minute):
				return fmt.Errorf("shard: hang fault expired unobserved")
			}
		}
		sLo, sHi := lo.Clone(), hi.Clone()
		sLo[m.Axis], sHi[m.Axis] = v, v
		sres, err := scanner.Scan(sLo, sHi)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%w: %v", ErrDrained, context.Cause(ctx))
			}
			return err
		}
		if sres.Best != nil && improves(sres.BestValue, sres.Best, st.bestValue, st.best) {
			st.best = sres.Best.Clone()
			st.bestValue = sres.BestValue
		}
		st.strides++
		rec := ckptRecord{
			Stride:       v,
			Epoch:        cfg.epoch,
			BestValue:    pattern.JSONFloat(st.bestValue),
			Evaluations:  st.baseEvals + scanner.Evaluations(),
			NonConverged: st.baseNonConv + scanner.NonConverged(),
		}
		if st.best != nil {
			rec.Best = st.best.Key()
		}
		if err := ckpt.Append(rec); err != nil {
			return err
		}
		switch cfg.fault {
		case "crash":
			if fireOnce(dir, slab, "crash") {
				fmt.Fprintf(os.Stderr, "shard-worker: fault crash on slab %d after stride %d\n", slab, v)
				os.Exit(ExitFail) // abrupt death; the stride above is already fsynced
			}
		case "crash-always":
			fmt.Fprintf(os.Stderr, "shard-worker: fault crash-always on slab %d after stride %d\n", slab, v)
			os.Exit(ExitFail)
		case "partition":
			if fireOnce(dir, slab, "partition") {
				fmt.Fprintf(os.Stderr, "shard-worker: fault partition on slab %d after stride %d\n", slab, v)
				fence.partitioned = true
			}
		case "zombie":
			if fireOnce(dir, slab, "zombie") {
				fmt.Fprintf(os.Stderr, "shard-worker: fault zombie on slab %d after stride %d\n", slab, v)
				fence.zombie = true
			}
		}
	}

	res := SlabResult{
		Version:      FormatVersion,
		Kind:         resultKind,
		ManifestHash: hash,
		Slab:         slab,
		Epoch:        cfg.epoch,
		BestValue:    pattern.JSONFloat(st.bestValue),
		Evaluations:  st.baseEvals + scanner.Evaluations(),
		NonConverged: st.baseNonConv + scanner.NonConverged(),
		Strides:      hi[m.Axis] - lo[m.Axis] + 1,
		Resumed:      st.resumed,
	}
	if st.best != nil {
		res.Best = append([]int(nil), st.best...)
	}
	out, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	if cfg.fault == "torn" && fireOnce(dir, slab, "torn") {
		// Simulate a crash mid-write of a non-atomic result: a truncated
		// prefix left at the final path. The coordinator must quarantine
		// it and re-run the slab (which resumes from the checkpoint).
		fmt.Fprintf(os.Stderr, "shard-worker: fault torn result on slab %d\n", slab)
		return os.WriteFile(resultPath(dir, slab), out[:len(out)/2], 0o644)
	}
	if fence.zombie {
		// Protocol violator: wait until the slab is reassigned (a newer
		// epoch holds the lease), then write the result anyway — a stale
		// epoch stamp the coordinator must fence out of the merge.
		if err := waitSuperseded(ctx, dir, slab, cfg.epoch); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "shard-worker: zombie writing stale epoch %d result for slab %d\n", cfg.epoch, slab)
		return durable.Replace(resultPath(dir, slab), out)
	}
	if err := fence.prove(ctx); err != nil {
		return err
	}
	return durable.Replace(resultPath(dir, slab), out)
}

// fenceState tracks a worker's proof of ownership: the lease it renews
// every stride, and how long since a renewal last succeeded. The
// partition and zombie faults hook in here — one makes the lease
// unreachable, the other ignores it entirely.
type fenceState struct {
	dir         string
	lease       *Lease
	ttl         time.Duration
	lastProof   time.Time
	partitioned bool // renewals fail as if the lease file were unreachable
	zombie      bool // fencing skipped entirely (protocol violation, for tests)
}

// silent reports whether the worker has stopped publishing heartbeats
// (both injected failure modes go dark).
func (f *fenceState) silent() bool { return f.partitioned || f.zombie }

// tryRenew is one renewal attempt, with the partition fault standing in
// for an unreachable lease file.
func (f *fenceState) tryRenew() error {
	if f.partitioned {
		return fmt.Errorf("shard: lease unreachable (partition fault)")
	}
	return renewLease(f.dir, f.lease)
}

// renew re-proves ownership before a stride. A renewal that observes a
// newer epoch is fencing; an I/O failure is tolerated until the TTL has
// elapsed since the last successful proof, after which the worker must
// assume it was superseded.
func (f *fenceState) renew() error {
	if f.zombie {
		return nil
	}
	err := f.tryRenew()
	if err == nil {
		f.lastProof = time.Now()
		return nil
	}
	if errors.Is(err, ErrFenced) {
		return err
	}
	if since := time.Since(f.lastProof); since >= f.ttl {
		return fmt.Errorf("%w: slab %d: no proof of ownership for %v: %v", ErrFenced, f.lease.Slab, since.Round(time.Millisecond), err)
	}
	return nil
}

// prove blocks until ownership is re-established — required immediately
// before the result write. Unlike renew it does not tolerate a silent
// failure window: it retries until a renewal succeeds, the TTL expires
// (fenced), or the worker is drained.
func (f *fenceState) prove(ctx context.Context) error {
	if f.zombie {
		return nil
	}
	pause := f.ttl / 20
	if pause < time.Millisecond {
		pause = time.Millisecond
	}
	for {
		err := f.tryRenew()
		if err == nil {
			f.lastProof = time.Now()
			return nil
		}
		if errors.Is(err, ErrFenced) {
			return err
		}
		if since := time.Since(f.lastProof); since >= f.ttl {
			return fmt.Errorf("%w: slab %d: could not prove ownership for result write (%v without renewal): %v",
				ErrFenced, f.lease.Slab, since.Round(time.Millisecond), err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrDrained, context.Cause(ctx))
		case <-time.After(pause):
		}
	}
}

// waitSuperseded polls the slab lease until some newer epoch holds it
// (the zombie fault's trigger for its stale write).
func waitSuperseded(ctx context.Context, dir string, slab, epoch int) error {
	deadline := time.After(10 * time.Minute)
	for {
		cur, err := readLease(dir, slab)
		if err == nil && cur.Epoch > epoch {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrDrained, context.Cause(ctx))
		case <-deadline:
			return fmt.Errorf("shard: zombie fault expired unsuperseded")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// slabState is the worker's resumable progress.
type slabState struct {
	next      int // first stride not yet scanned
	best      numeric.IntVector
	bestValue float64
	// baseEvals/baseNonConv carry counters from previous attempts.
	baseEvals   int
	baseNonConv int
	strides     int
	resumed     bool
}

// loadSlabState reads the slab's checkpoint if one exists. A checkpoint
// whose header does not match this search (different manifest, slab or
// dimension) or does not parse at all is quarantined (durable.Quarantine)
// and the slab starts fresh; losing an attempt's progress is
// recoverable, silently mixing two searches is not. A header from an
// OLDER epoch is the normal resume case, not corruption: its records
// are valid cumulative states, and adopting them is what makes rescans
// exact.
func loadSlabState(dir string, slab int, hash string, dim int) (*slabState, error) {
	st := &slabState{next: -1 << 62, bestValue: math.Inf(1)}
	path := ckptPath(dir, slab)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading slab checkpoint: %w", err)
	}
	cp, perr := ParseSlabCheckpoint(data)
	if perr == nil && (cp.Header.ManifestHash != hash || cp.Header.Slab != slab || cp.Header.Dim != dim) {
		perr = fmt.Errorf("shard: checkpoint belongs to a different search or slab")
	}
	if perr != nil {
		if err := durable.Quarantine(path); err != nil {
			perr = fmt.Errorf("%v (%v)", perr, err)
		}
		fmt.Fprintf(os.Stderr, "shard-worker: quarantined checkpoint for slab %d: %v\n", slab, perr)
		return st, nil
	}
	if cp.Last == nil {
		return st, nil
	}
	st.next = cp.Last.Stride + 1
	st.bestValue = float64(cp.Last.BestValue)
	st.baseEvals = cp.Last.Evaluations
	st.baseNonConv = cp.Last.NonConverged
	st.strides = cp.Records
	st.resumed = true
	if cp.Last.Best != "" {
		p, err := parsePointKey(cp.Last.Best, dim)
		if err != nil {
			return nil, err
		}
		st.best = p
	}
	return st, nil
}

// openSlabCkpt (re)establishes the checkpoint log with durable.Create:
// the durable prefix — header plus, on resume, the last cumulative
// record, both stamped with THIS attempt's epoch — replaces the file
// (dropping any torn tail a crash left behind), then the log takes
// fsynced appends. Create's rename is also the fence against zombie
// appends: a previous attempt still holding the file open now holds an
// orphaned inode, so its writes can never reach the live checkpoint.
func openSlabCkpt(dir string, slab int, hash string, epoch, dim int, st *slabState) (*durable.Log, error) {
	recs := []any{ckptHeader{
		Version: FormatVersion, Kind: ckptKind, ManifestHash: hash, Slab: slab, Epoch: epoch, Dim: dim,
	}}
	if st.resumed {
		rec := ckptRecord{
			Stride:       st.next - 1,
			Epoch:        epoch,
			BestValue:    pattern.JSONFloat(st.bestValue),
			Evaluations:  st.baseEvals,
			NonConverged: st.baseNonConv,
		}
		if st.best != nil {
			rec.Best = st.best.Key()
		}
		recs = append(recs, rec)
	}
	return durable.Create(ckptPath(dir, slab), recs...)
}

// writeHeartbeat publishes the stride the worker is about to scan. It is
// advisory liveness (progress) information, deliberately not fsynced.
func writeHeartbeat(dir string, slab, stride int) {
	_ = os.WriteFile(hbPath(dir, slab), []byte(strconv.Itoa(stride)), 0o644)
}

// parseFaults decodes the SHARD_FAULT contract ("crash:slab2,hang:slab0")
// into slab → fault kind. Malformed entries are ignored: a typo in a
// debugging hook must never take down a production worker.
func parseFaults(spec string) map[int]string {
	out := map[int]string{}
	for _, part := range strings.Split(spec, ",") {
		kind, target, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok || !strings.HasPrefix(target, "slab") {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(target, "slab"))
		if err != nil || k < 0 {
			continue
		}
		switch kind {
		case "crash", "hang", "torn", "crash-always", "partition", "zombie":
			out[k] = kind
		}
	}
	return out
}

// fireOnce arms a one-shot fault: the first caller to create the marker
// file wins and fires; every later attempt sees the marker and runs
// clean. The marker lives in the spool so it survives the crash it
// provokes.
func fireOnce(dir string, slab int, kind string) bool {
	f, err := os.OpenFile(faultMarkerPath(dir, slab, kind), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}
