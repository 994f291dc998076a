package pattern

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

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
		serial, err := Search(obj, numeric.IntVector{1, 1, 1}, opts)
		if err != nil {
			return false
		}
		for _, w := range []int{2, 4, 8} {
			po := opts
			po.Workers = w
			par, err := Search(obj, numeric.IntVector{1, 1, 1}, po)
			if err != nil {
				return false
			}
			// The determinism guarantee covers the full trajectory, cache
			// accounting included.
			if !par.Best.Equal(serial.Best) || par.BestValue != serial.BestValue ||
				par.Evaluations != serial.Evaluations || par.CacheHits != serial.CacheHits ||
				len(par.BasePoints) != len(serial.BasePoints) {
				return false
			}
			for i := range serial.BasePoints {
				if !par.BasePoints[i].Equal(serial.BasePoints[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
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
