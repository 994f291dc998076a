package pattern

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/numeric"
)

// sameTrajectory runs the search serially and at each worker count, and
// returns the first difference in what the parallel search must keep
// bit-identical: Best, the bits of BestValue, Evaluations, CacheHits,
// BasePoints and the memo cache, read back from the final checkpoint.
func sameTrajectory(dir string, obj Objective, start numeric.IntVector, opts Options, workers ...int) error {
	run := func(w int) (*Result, map[string]JSONFloat, error) {
		o := opts
		o.Workers = w
		path := filepath.Join(dir, fmt.Sprintf("w%d.ckpt", w))
		o.Checkpoint = &CheckpointOptions{Path: path, Every: math.MaxInt}
		res, err := Search(obj, start, o)
		if err != nil {
			return nil, nil, err
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return nil, nil, err
		}
		return res, ck.Visited, nil
	}
	serial, cache, err := run(1)
	if err != nil {
		return err
	}
	for _, w := range workers {
		par, parCache, err := run(w)
		switch {
		case err != nil:
			return fmt.Errorf("workers=%d: %w", w, err)
		case !par.Best.Equal(serial.Best) || math.Float64bits(par.BestValue) != math.Float64bits(serial.BestValue):
			return fmt.Errorf("workers=%d: best %v (%v), serial %v (%v)", w, par.Best, par.BestValue, serial.Best, serial.BestValue)
		case par.Evaluations != serial.Evaluations || par.CacheHits != serial.CacheHits:
			return fmt.Errorf("workers=%d: %d evaluations and %d cache hits, serial %d and %d",
				w, par.Evaluations, par.CacheHits, serial.Evaluations, serial.CacheHits)
		case !slices.EqualFunc(par.BasePoints, serial.BasePoints, numeric.IntVector.Equal):
			return fmt.Errorf("workers=%d: base points %v, serial %v", w, par.BasePoints, serial.BasePoints)
		case !maps.Equal(parCache, cache):
			return fmt.Errorf("workers=%d: memo cache of %d points, serial %d", w, len(parCache), len(cache))
		}
	}
	return nil
}

// separable24 is a 24-class separable quadratic about c = 10, started at
// c − 1 in every coordinate. Its serial search makes separable24Evals
// evaluations in separable24Passes exploratory passes with
// separable24Accepts accepted moves, so most probes of a pass are taken
// about a point the pass has already moved.
func separable24() (Objective, numeric.IntVector) {
	centre := make([]int, 24)
	start := numeric.NewIntVector(24)
	for i := range start {
		centre[i], start[i] = 10, 9
	}
	return quadratic(centre...), start
}

const separable24Evals, separable24Passes, separable24Accepts = 119, 5, 48

func TestParallelTrajectoryEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / float64(1<<53)
		}
		cx := float64(int(next()*15) + 1)
		cy := float64(int(next()*15) + 1)
		cz := float64(int(next()*15) + 1)
		obj := func(x numeric.IntVector) (float64, error) {
			dx, dy, dz := float64(x[0])-cx, float64(x[1])-cy, float64(x[2])-cz
			return dx*dx + 2*dy*dy + 0.5*dz*dz + 0.25*dx*dy, nil
		}
		opts := Options{Hi: numeric.IntVector{20, 20, 20}, InitialStep: numeric.IntVector{4, 4, 4}, MaxHalvings: 3}
		if err := sameTrajectory(t.TempDir(), obj, numeric.IntVector{1, 1, 1}, opts, 2, 4, 8); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	// Every accepted move of the first pass restarts the lookahead.
	obj, start := separable24()
	if err := sameTrajectory(t.TempDir(), obj, start, Options{}, 2, 3, 8); err != nil {
		t.Errorf("separable24: %v", err)
	}
}

// TestSpeculationConcurrencyBound: only the lookahead's workers call the
// objective inside a pass, so at most Workers calls are ever in flight.
func TestSpeculationConcurrencyBound(t *testing.T) {
	inner, start := separable24()
	for _, w := range []int{2, 3} {
		var inFlight, peak atomic.Int32
		obj := func(x numeric.IntVector) (float64, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			return inner(x)
		}
		if _, err := Search(obj, start, Options{Workers: w}); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int32(w) {
			t.Errorf("workers=%d: %d objective calls in flight at once", w, p)
		}
	}
}

// TestSpeculationWasteBound: an accepted move abandons at most Workers−1
// probes of its generation, so the calls the replay never consumes are
// bounded by (Workers−1) × (passes + accepted moves).
func TestSpeculationWasteBound(t *testing.T) {
	const w = 2
	inner, start := separable24()
	var calls atomic.Int64
	obj := func(x numeric.IntVector) (float64, error) {
		calls.Add(1)
		return inner(x)
	}
	res, err := Search(obj, start, Options{Workers: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != separable24Evals {
		t.Fatalf("%d evaluations, the serial search makes %d", res.Evaluations, separable24Evals)
	}
	bound := (w - 1) * (separable24Passes + separable24Accepts)
	if waste := int(calls.Load()) - res.Evaluations; waste > bound {
		t.Errorf("%d objective calls for %d evaluations: %d wasted, bound %d", calls.Load(), res.Evaluations, waste, bound)
	}
}

func TestParallelActuallyRunsConcurrently(t *testing.T) {
	// Two probes must overlap in time: every objective call except the
	// (serial) start-point evaluation blocks until a second call is in
	// flight. A serial search would deadlock on the first probe; the
	// 2R = 4 speculative probes of the first pass satisfy it immediately.
	start := numeric.IntVector{5, 5}
	var inFlight atomic.Int32
	ready := make(chan struct{})
	var once sync.Once
	obj := func(x numeric.IntVector) (float64, error) {
		if x.Equal(start) {
			return quadraticVal(x, 3, 3), nil
		}
		if inFlight.Add(1) >= 2 {
			once.Do(func() { close(ready) })
		}
		<-ready
		inFlight.Add(-1)
		return quadraticVal(x, 3, 3), nil
	}
	res, err := Search(obj, numeric.IntVector{5, 5}, Options{Workers: 4, Hi: numeric.IntVector{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{3, 3}) {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestParallelBudgetMidPatternMove(t *testing.T) {
	// A descent ridge exhausts the budget during the pattern phase; serial
	// and parallel must fail identically with ErrBudget.
	obj := func(x numeric.IntVector) (float64, error) {
		return -float64(x[0]) - float64(x[1]), nil
	}
	for _, w := range []int{1, 4} {
		_, err := Search(obj, numeric.IntVector{1, 1},
			Options{Workers: w, MaxEvaluations: 23})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: expected ErrBudget, got %v", w, err)
		}
	}
}

func TestBudgetExhaustsAtExactCount(t *testing.T) {
	// ErrBudget must fire with the objective called exactly MaxEvaluations
	// times (mid-pattern-move on this unbounded descent).
	var calls atomic.Int64
	obj := func(x numeric.IntVector) (float64, error) {
		calls.Add(1)
		return -float64(x[0]), nil
	}
	const budget = 17
	_, err := Search(obj, numeric.IntVector{1}, Options{MaxEvaluations: budget})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if calls.Load() != budget {
		t.Errorf("objective called %d times under budget %d", calls.Load(), budget)
	}
}

func TestParallelObjectiveErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	obj := func(x numeric.IntVector) (float64, error) {
		if x[0] >= 4 {
			return 0, boom
		}
		return -float64(x[0]), nil
	}
	_, err := Search(obj, numeric.IntVector{1}, Options{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestParallelUncommittedProbeErrorsDiscarded(t *testing.T) {
	// From the start (2,2) the first coordinate's probes fail and the
	// second coordinate's +step improves, so the serial replay never
	// consumes the -step probe at (2,1). That speculative call erroring
	// must NOT fail the search: wasted probes are discarded, errors and
	// values alike.
	obj := func(x numeric.IntVector) (float64, error) {
		if x[1] == 1 {
			return 0, errors.New("speculative probe must be discarded")
		}
		return quadraticVal(x, 2, 9), nil
	}
	res, err := Search(obj, numeric.IntVector{2, 2},
		Options{Workers: 4, Hi: numeric.IntVector{9, 9}, Lo: numeric.IntVector{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{2, 9}) {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestOnCommitTraceMatchesBasePoints(t *testing.T) {
	for _, w := range []int{1, 4} {
		var trace []numeric.IntVector
		var vals []float64
		opts := Options{
			Workers: w,
			Hi:      numeric.IntVector{20, 20},
			OnCommit: func(x numeric.IntVector, fx float64) {
				trace = append(trace, x)
				vals = append(vals, fx)
			},
		}
		res, err := Search(quadratic(12, 5), numeric.IntVector{1, 1}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) != len(res.BasePoints) {
			t.Fatalf("workers=%d: %d commits for %d base points", w, len(trace), len(res.BasePoints))
		}
		for i := range trace {
			if !trace[i].Equal(res.BasePoints[i]) {
				t.Errorf("workers=%d: commit %d = %v, base point %v", w, i, trace[i], res.BasePoints[i])
			}
			if want := quadraticVal(trace[i], 12, 5); vals[i] != want {
				t.Errorf("workers=%d: commit %d value %v, want %v", w, i, vals[i], want)
			}
		}
		if !trace[len(trace)-1].Equal(res.Best) {
			t.Errorf("workers=%d: last commit %v != Best %v", w, trace[len(trace)-1], res.Best)
		}
	}
}

func TestExhaustiveStopsAfterFirstError(t *testing.T) {
	// Satellite regression: the lattice walk must stop at the first
	// objective error instead of walking (and cloning) the rest of the box.
	var calls atomic.Int64
	boom := errors.New("boom")
	obj := func(x numeric.IntVector) (float64, error) {
		if calls.Add(1) == 3 {
			return 0, boom
		}
		return 0, nil
	}
	_, err := Exhaustive(context.Background(), obj, numeric.IntVector{1, 1}, numeric.IntVector{10, 10}, 0, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("objective called %d times, want exactly 3 (stop on first error)", calls.Load())
	}
}
