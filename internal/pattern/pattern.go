// Package pattern implements the Hooke–Jeeves pattern search (Ch. 4 §4.3)
// on integer lattices — the direct-search engine inside WINDIM — plus an
// exhaustive box search used to probe global optimality on small problems
// (the thesis does this for Fig. 4.9).
//
// The search alternates exploratory moves (perturb one coordinate at a
// time by the current step) and pattern moves (repeat the combined
// successful move, doubling along established ridges), halving the step
// when exploration fails, exactly as in the thesis's APL WINDIM program —
// including its FLOC/FSTR evaluation cache, realised here as a map from
// lattice points to objective values.
package pattern

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/numeric"
)

// Objective evaluates the function to MINIMISE at an integer point.
// Returning an error aborts the search.
type Objective func(x numeric.IntVector) (float64, error)

// Options configures the search. The zero value searches with unit
// initial steps, lower bound 1 in every dimension (windows are at least
// one message), no upper bound, and KMAX = 2 step halvings.
type Options struct {
	// InitialStep gives per-dimension starting steps (>= 1). Nil means
	// all ones.
	InitialStep numeric.IntVector
	// Lo is the per-dimension lower bound (inclusive). Nil means all
	// ones.
	Lo numeric.IntVector
	// Hi is the per-dimension upper bound (inclusive). Nil means
	// unbounded above.
	Hi numeric.IntVector
	// MaxHalvings is the KMAX of the APL program: the search ends after
	// this many step reductions fail to make progress. < 0 means 0;
	// 0 is interpreted as the default 2.
	MaxHalvings int
	// MaxEvaluations bounds objective calls (cache hits excluded);
	// <= 0 means 100000. Under speculative exploration (Workers > 1) the
	// bound applies to the committed serial trajectory: discarded
	// speculative probes call the objective without consuming budget.
	MaxEvaluations int
	// Workers > 1 enables speculative-parallel exploration: Workers
	// goroutines evaluate each pass's exploratory probes ahead of the
	// serial replay, in the replay's own order and about its current
	// point, at most Workers at a time, and every accepted move restarts
	// them about the moved point. Acceptance decisions replay in exact
	// serial order against the results. The objective must be safe for
	// concurrent calls and a pure function of its argument; in return the
	// search trajectory — Best, BestValue, BasePoints, Evaluations,
	// CacheHits, and the memo-cache contents — is bit-identical to the
	// serial search, and the objective never runs more than Workers calls
	// at once. Probes an accepted move abandons after they started are
	// wasted objective calls (the price of speculation), at most
	// Workers−1 per accepted move or aborted pass; their values, and any
	// errors they return, are discarded. <= 1 is serial.
	Workers int
	// OnCommit, when non-nil, is invoked serially each time the search
	// commits a new base point (including the clamped start point), with a
	// private copy of the point and its objective value. All speculative
	// evaluations of the enclosing pass have completed by the time it
	// runs, so the callback may safely mutate state the objective reads —
	// core.Engine promotes its warm-start seed here.
	OnCommit func(x numeric.IntVector, fx float64)
	// Context, when non-nil, makes the search cancellable: it is polled
	// before every objective evaluation, and on cancellation Search
	// returns the BEST-SO-FAR result (current base point, its value, the
	// trace accumulated so far) together with a non-nil error wrapping
	// ctx.Err(). A long dimensioning run under a deadline therefore
	// degrades to "the best windows found in the time allowed" instead of
	// nothing. nil means never cancelled.
	Context context.Context
	// Checkpoint, when non-nil, enables durable checkpoints: the search
	// state is written durably to Checkpoint.Path on the configured commit
	// cadence, at cancellation, and at termination. Writes happen only at
	// commit points — after the pass barrier — so they never observe a
	// partially evaluated pass.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, preloads the memo cache from a checkpoint
	// before the search starts. The search still runs from its start
	// point; the previously explored trajectory replays out of the cache
	// without objective calls (OnCommit still fires along it, rebuilding
	// warm-start state), so the result is bit-identical to an
	// uninterrupted run at any worker count. The checkpoint's dimension
	// must match the start point; validating ModelHash against the current
	// model is the caller's job (core does it).
	Resume *Checkpoint
}

func (o Options) withDefaults(dim int) (Options, error) {
	if o.InitialStep == nil {
		o.InitialStep = numeric.NewIntVector(dim)
		for i := range o.InitialStep {
			o.InitialStep[i] = 1
		}
	}
	if o.Lo == nil {
		o.Lo = numeric.NewIntVector(dim)
		for i := range o.Lo {
			o.Lo[i] = 1
		}
	}
	if len(o.InitialStep) != dim || len(o.Lo) != dim || (o.Hi != nil && len(o.Hi) != dim) {
		return o, fmt.Errorf("pattern: option dimensions do not match start point dimension %d", dim)
	}
	for i, s := range o.InitialStep {
		if s < 1 {
			return o, fmt.Errorf("pattern: initial step %d at dimension %d; need >= 1", s, i)
		}
	}
	if o.Hi != nil {
		for i := range o.Hi {
			if o.Hi[i] < o.Lo[i] {
				return o, fmt.Errorf("pattern: empty box at dimension %d: [%d, %d]", i, o.Lo[i], o.Hi[i])
			}
		}
	}
	if o.MaxHalvings == 0 {
		o.MaxHalvings = 2
	} else if o.MaxHalvings < 0 {
		o.MaxHalvings = 0
	}
	if o.MaxEvaluations <= 0 {
		o.MaxEvaluations = 100000
	}
	return o, nil
}

// Result reports the search outcome.
type Result struct {
	// Best is the best point found.
	Best numeric.IntVector
	// BestValue is the objective at Best.
	BestValue float64
	// Evaluations counts real objective calls.
	Evaluations int
	// CacheHits counts evaluations answered from the memo table.
	CacheHits int
	// BasePoints traces the accepted base points, starting with the
	// (clamped) start point.
	BasePoints []numeric.IntVector
}

// ErrBudget is wrapped in the error returned when MaxEvaluations is
// exhausted before the search terminates.
var ErrBudget = errors.New("pattern: evaluation budget exhausted")

type searcher struct {
	obj    Objective
	opts   Options
	cache  map[string]float64
	result *Result
	la     *lookahead // nil when serial

	// Snapshot state for checkpointing, maintained by Search's main loop.
	ckpt     *CheckpointOptions
	start    numeric.IntVector
	base     numeric.IntVector
	fBase    float64
	step     numeric.IntVector
	halvings int
	commits  int
	doneOK   bool // set when the search terminated normally

	// Checkpoint log state: the open log (nil until the first durable
	// write), the cache entries learned since the last durable write, and
	// the Aux that write carried.
	log     *durable.Log
	pending map[string]JSONFloat
	aux     json.RawMessage
}

// lookahead evaluates a pass's exploratory probes ahead of the serial
// replay, on width long-lived workers. The replay keeps each improving move
// as soon as it finds it, so the lookahead issues probes lazily, in the
// replay's order, about the replay's current point — one generation — with
// at most width of them out at once. An accepted move starts a new
// generation about the moved point at the next coordinate and abandons the
// older one; a worker skips an abandoned probe it has not started. No
// commit happens inside a pass, so every probe of a pass solves from the
// same warm seed, and a worker's value is the one the replay would compute.
type lookahead struct {
	s     *searcher
	width int
	work  chan *probe // issued probes; holds every slot, so a send never blocks
	gen   atomic.Uint64
	wg    sync.WaitGroup

	// The slots, each in exactly one list or in the replay's hands.
	free  []*probe // held by no worker
	queue []*probe // the current generation's issued probes, in replay order
	stale []*probe // abandoned, possibly still held by a worker; oldest first

	// The generator: the current generation probes base ± step from
	// coordinate next/2 on, + at even next and − at odd.
	base numeric.IntVector
	step numeric.IntVector
	next int
}

// probe is one reusable lookahead slot.
type probe struct {
	x    numeric.IntVector // the objective's private copy of the point
	key  string
	gen  uint64
	v    float64
	err  error
	done chan struct{} // signalled once per issue, when the worker lets go
}

// newLookahead starts width workers with 2×width slots: width for the
// current generation, the rest for abandoned probes still being run or
// skipped.
func newLookahead(s *searcher, width, dim int) *lookahead {
	la := &lookahead{
		s:     s,
		width: width,
		work:  make(chan *probe, 2*width),
		free:  make([]*probe, 2*width),
		queue: make([]*probe, 0, 2*width),
		stale: make([]*probe, 0, 2*width),
		base:  numeric.NewIntVector(dim),
	}
	slots := make([]probe, 2*width)
	for i := range slots {
		slots[i].done = make(chan struct{}, 1)
		la.free[i] = &slots[i]
	}
	la.wg.Add(width)
	for range width {
		go la.run()
	}
	return la
}

func (la *lookahead) run() {
	defer la.wg.Done()
	for p := range la.work {
		if p.gen == la.gen.Load() {
			p.v, p.err = la.s.obj(p.x)
		}
		p.done <- struct{}{}
	}
}

// stop ends the workers and returns once they have exited. No probe may
// be outstanding: explore drains every pass.
func (la *lookahead) stop() {
	close(la.work)
	la.wg.Wait()
}

// restart abandons the outstanding probes and starts a generation about x
// at coordinate i. A nil lookahead (the serial search) does nothing.
func (la *lookahead) restart(x, step numeric.IntVector, i int) {
	if la == nil {
		return
	}
	la.abandon()
	copy(la.base, x)
	la.step = step
	la.next = 2 * i
}

func (la *lookahead) abandon() {
	la.gen.Add(1)
	la.stale = append(la.stale, la.queue...)
	la.queue = la.queue[:0]
}

// drain abandons the outstanding probes and waits until no worker holds a
// slot, so no objective call is in flight when a pass returns — the
// barrier OnCommit's contract (and core.Engine's warm-seed promotion)
// relies on. A nil lookahead does nothing.
func (la *lookahead) drain() {
	if la == nil {
		return
	}
	la.abandon()
	for _, p := range la.stale {
		<-p.done
		la.free = append(la.free, p)
	}
	la.stale = la.stale[:0]
}

// fill issues the current generation's next probes until width are out or
// the pass has none left. Points outside the box or already memoised are
// skipped — the replay answers those without calling the objective. The
// WHOLE probe is box-checked, not just the perturbed coordinate: a
// pattern-move base can itself sit outside the box, and its out-of-box
// neighbours must never reach the objective — the serial replay answers
// them +Inf, and an objective with side effects on failure (scenario
// degradation in core.DimensionRobust) must not observe points the serial
// search would never feed it.
func (la *lookahead) fill() {
	for len(la.queue) < la.width && la.next < 2*len(la.base) {
		i, d := la.next/2, la.step[la.next/2]
		if la.next%2 == 1 {
			d = -d
		}
		la.next++
		la.base[i] += d
		if la.s.inBox(la.base) {
			key := la.base.Key()
			if _, ok := la.s.cache[key]; !ok {
				p := la.slot()
				p.x, p.key, p.gen = la.base.Clone(), key, la.gen.Load()
				la.queue = append(la.queue, p)
				la.work <- p
			}
		}
		la.base[i] -= d
	}
}

// slot returns a free slot, waiting for the oldest abandoned probe when
// none is. At most width-1 slots are queued when fill asks, so a free or
// abandoned slot always exists.
func (la *lookahead) slot() *probe {
	if n := len(la.free); n > 0 {
		p := la.free[n-1]
		la.free = la.free[:n-1]
		return p
	}
	p := la.stale[0]
	la.stale = la.stale[:copy(la.stale, la.stale[1:])]
	<-p.done
	return p
}

// take returns the objective at the replay's next fresh probe, whose key
// is key: the head of the queue, since fill skips exactly the points the
// replay answers without calling the objective.
func (la *lookahead) take(key string) (float64, error) {
	la.fill()
	p := la.queue[0]
	if p.key != key {
		panic("pattern: lookahead out of step with the replay at " + key)
	}
	la.queue = la.queue[:copy(la.queue, la.queue[1:])]
	<-p.done
	la.free = append(la.free, p)
	return p.v, p.err
}

// inBox reports whether x lies inside the [Lo, Hi] search box.
func (s *searcher) inBox(x numeric.IntVector) bool {
	for i := range x {
		if x[i] < s.opts.Lo[i] || (s.opts.Hi != nil && x[i] > s.opts.Hi[i]) {
			return false
		}
	}
	return true
}

// eval returns the (memoised) objective at x; out-of-box points are +Inf
// and never reach the objective. Inside an exploratory pass of a parallel
// search (la non-nil) the value comes from the lookahead instead of a
// fresh objective call; budget accounting and cache insertion happen
// exactly as in the serial search.
func (s *searcher) eval(x numeric.IntVector, la *lookahead) (float64, error) {
	if ctx := s.opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("pattern: search cancelled: %w", err)
		}
	}
	if !s.inBox(x) {
		return math.Inf(1), nil
	}
	key := x.Key()
	if v, ok := s.cache[key]; ok {
		s.result.CacheHits++
		return v, nil
	}
	if s.result.Evaluations >= s.opts.MaxEvaluations {
		return 0, fmt.Errorf("%w (%d evaluations)", ErrBudget, s.result.Evaluations)
	}
	s.result.Evaluations++
	var v float64
	var err error
	if la != nil {
		v, err = la.take(key)
	} else {
		v, err = s.obj(x.Clone())
	}
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) {
		v = math.Inf(1)
	}
	s.cache[key] = v
	if s.pending != nil {
		s.pending[key] = JSONFloat(v)
	}
	return v, nil
}

// commit records a newly accepted base point, notifies OnCommit and, on
// the configured cadence, writes a checkpoint. The write follows OnCommit
// so the snapshot's Aux callback sees the caller's post-commit state.
func (s *searcher) commit(x numeric.IntVector, fx float64) error {
	s.base = x
	s.fBase = fx
	s.commits++
	s.result.BasePoints = append(s.result.BasePoints, x.Clone())
	if s.opts.OnCommit != nil {
		s.opts.OnCommit(x.Clone(), fx)
	}
	return s.writeCheckpoint(false)
}

// explore performs one exploratory pass about x (value fx): each
// coordinate in turn is increased then decreased by its step, keeping any
// strict improvement. It returns the final point and value. With Workers
// > 1 the lookahead evaluates the pass's probes ahead of this loop, which
// consumes them in serial order and restarts the lookahead about every
// accepted move, so the trajectory is identical to the serial pass.
func (s *searcher) explore(x numeric.IntVector, fx float64, step numeric.IntVector) (numeric.IntVector, float64, error) {
	la := s.la
	defer la.drain()
	cur := x.Clone()
	la.restart(cur, step, 0)
	for i := range cur {
		orig := cur[i]
		cur[i] = orig + step[i]
		fp, err := s.eval(cur, la)
		if err != nil {
			return nil, 0, err
		}
		if fp < fx {
			fx = fp
			la.restart(cur, step, i+1)
			continue
		}
		cur[i] = orig - step[i]
		fm, err := s.eval(cur, la)
		if err != nil {
			return nil, 0, err
		}
		if fm < fx {
			fx = fm
			la.restart(cur, step, i+1)
			continue
		}
		cur[i] = orig
	}
	return cur, fx, nil
}

// Search minimises the objective starting from start.
func Search(obj Objective, start numeric.IntVector, opts Options) (*Result, error) {
	if obj == nil {
		return nil, errors.New("pattern: nil objective")
	}
	if len(start) == 0 {
		return nil, errors.New("pattern: empty start point")
	}
	opts, err := opts.withDefaults(len(start))
	if err != nil {
		return nil, err
	}
	s := &searcher{obj: obj, opts: opts, cache: make(map[string]float64), result: &Result{}, ckpt: opts.Checkpoint}
	if s.ckpt != nil {
		s.pending = make(map[string]JSONFloat)
	}
	defer func() {
		if s.log != nil {
			// Every record was fsynced by its append; closing only
			// releases the handle.
			s.log.Close()
		}
	}()
	// A pass has at most 2R fresh probes, so more workers would idle.
	if w := min(opts.Workers, 2*len(start)); w > 1 {
		s.la = newLookahead(s, w, len(start))
		defer s.la.stop()
	}
	if rc := opts.Resume; rc != nil {
		if rc.Dim != len(start) {
			return nil, fmt.Errorf("pattern: resume checkpoint dimension %d does not match start dimension %d", rc.Dim, len(start))
		}
		// Preload the memo cache; the replayed trajectory is answered from
		// it without objective calls.
		for k, v := range rc.Visited {
			s.cache[k] = float64(v)
		}
	}

	// Clamp the start into the box.
	base := start.Clone()
	for i := range base {
		if base[i] < opts.Lo[i] {
			base[i] = opts.Lo[i]
		}
		if opts.Hi != nil && base[i] > opts.Hi[i] {
			base[i] = opts.Hi[i]
		}
	}
	s.start = base.Clone()
	fBase, err := s.eval(base, nil)
	if err != nil {
		return nil, err
	}
	if math.IsInf(fBase, 1) {
		return nil, errors.New("pattern: objective is +Inf at the start point")
	}
	s.step = opts.InitialStep.Clone()
	if err := s.commit(base, fBase); err != nil {
		// A checkpoint path that cannot be written is a configuration
		// error; failing fast beats discovering it at the first crash.
		return nil, err
	}

	// fail maps an error out of the search loop. Cancellation degrades to
	// the best-so-far result — the committed base point is always a fully
	// evaluated, feasible setting — while every other error (a broken
	// objective, an exhausted budget) aborts with no result, as before.
	fail := func(err error) (*Result, error) {
		if ctx := s.opts.Context; ctx != nil && ctx.Err() != nil {
			s.result.Best = base
			s.result.BestValue = fBase
			err = fmt.Errorf("pattern: search cancelled at best-so-far %v: %w", base, ctx.Err())
			// A final snapshot so a resumed run replays everything learned
			// up to the cancellation, not just up to the last cadence hit.
			if werr := s.writeCheckpoint(true); werr != nil {
				err = fmt.Errorf("%w (final checkpoint write failed: %v)", err, werr)
			}
			return s.result, err
		}
		return nil, err
	}

	for {
		cand, fCand, err := s.explore(base, fBase, s.step)
		if err != nil {
			return fail(err)
		}
		if fCand < fBase {
			// Pattern phase: repeat the combined move, exploring about
			// each projected point (Fig. 4.3/4.4).
			prev := base
			base, fBase = cand, fCand
			if err := s.commit(base, fBase); err != nil {
				return fail(err)
			}
			for {
				probe := base.Clone()
				for i := range probe {
					probe[i] += base[i] - prev[i]
				}
				fProbe, err := s.eval(probe, nil)
				if err != nil {
					return fail(err)
				}
				cand2, fCand2, err := s.explore(probe, fProbe, s.step)
				if err != nil {
					return fail(err)
				}
				if fCand2 < fBase {
					prev = base
					base, fBase = cand2, fCand2
					if err := s.commit(base, fBase); err != nil {
						return fail(err)
					}
					continue
				}
				break
			}
			continue
		}
		// Exploration failed: halve the step (integer floor at 1) and
		// count the reduction, as the APL program's K counter does.
		if s.halvings >= opts.MaxHalvings {
			break
		}
		s.halvings++
		for i := range s.step {
			if s.step[i] > 1 {
				s.step[i] /= 2
			}
		}
	}
	s.result.Best = base
	s.result.BestValue = fBase
	s.base, s.fBase = base, fBase
	s.doneOK = true
	if err := s.writeCheckpoint(true); err != nil {
		return s.result, fmt.Errorf("pattern: search finished but final checkpoint write failed: %w", err)
	}
	return s.result, nil
}

// Exhaustive evaluates the objective at every point of the box [lo, hi]
// and returns the minimiser, ties broken by lattice order (the earliest
// point wins). Intended for global-optimality probes on small boxes; the
// number of points is capped at maxPoints (<= 0 means 2^20).
//
// The scan splits the lattice order into one contiguous range per worker
// (workers < 1 means 1); the result, evaluation count included, does not
// depend on workers. With more than one worker the objective must be safe
// for concurrent use — the analytic evaluators in this repository are
// pure functions of their arguments, so WINDIM's objectives qualify.
//
// ctx (nil = never cancelled) is polled before each evaluation. On
// cancellation the best point among the completed evaluations is
// returned together with a non-nil error wrapping ctx.Err() (a nil Best
// if nothing finished). An objective error stops its worker's walk and is
// returned with a nil Result.
func Exhaustive(ctx context.Context, obj Objective, lo, hi numeric.IntVector, maxPoints, workers int) (*Result, error) {
	if obj == nil {
		return nil, errors.New("pattern: nil objective")
	}
	if len(lo) == 0 || len(lo) != len(hi) {
		return nil, fmt.Errorf("pattern: box dimensions %d vs %d", len(lo), len(hi))
	}
	if maxPoints <= 0 {
		maxPoints = 1 << 20
	}
	span := numeric.NewIntVector(len(lo))
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, fmt.Errorf("pattern: empty box at dimension %d", i)
		}
		span[i] = hi[i] - lo[i]
	}
	size, err := numeric.LatticeSize(span, maxPoints)
	if err != nil {
		return nil, fmt.Errorf("pattern: exhaustive box too large: %w", err)
	}
	workers = max(1, min(workers, size))
	chunk := (size + workers - 1) / workers
	workers = (size + chunk - 1) / chunk // drop workers left with an empty range

	// Each worker keeps the first minimum of its range, so folding the
	// ranges in order with a strict < reproduces the serial tie-break.
	type partial struct {
		best      numeric.IntVector
		bestVal   float64
		done      int // evaluations completed
		cancelled bool
		err       error
	}
	parts := make([]partial, workers)
	scan := func(p *partial, start int) {
		end := min(start+chunk, size)
		p.bestVal = math.Inf(1)
		idx := 0
		numeric.LatticeWalkUntil(span, func(q numeric.IntVector) bool {
			if idx < start {
				idx++
				return true
			}
			if idx == end {
				return false
			}
			if ctx != nil && ctx.Err() != nil {
				p.cancelled = true
				return false
			}
			x := q.Clone()
			for i := range x {
				x[i] += lo[i]
			}
			v, err := obj(x)
			if err != nil {
				p.err = err
				return false
			}
			p.done++
			if v < p.bestVal {
				p.best, p.bestVal = x, v
			}
			idx++
			return true
		})
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scan(&parts[w], w*chunk)
		}(w)
	}
	scan(&parts[0], 0)
	wg.Wait()

	res := &Result{BestValue: math.Inf(1)}
	cancelled := false
	var firstErr error
	for w := range parts {
		p := &parts[w]
		res.Evaluations += p.done
		cancelled = cancelled || p.cancelled
		if firstErr == nil {
			firstErr = p.err
		}
		if p.bestVal < res.BestValue {
			res.Best, res.BestValue = p.best, p.bestVal
		}
	}
	if cancelled {
		return res, fmt.Errorf("pattern: exhaustive scan cancelled after %d evaluations: %w", res.Evaluations, ctx.Err())
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
