package pattern

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/numeric"
)

func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	obj := quadratic(4, 6)
	serial, err := Exhaustive(context.Background(), obj, numeric.IntVector{1, 1}, numeric.IntVector{9, 9}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 16} {
		par, err := Exhaustive(context.Background(), obj, numeric.IntVector{1, 1}, numeric.IntVector{9, 9}, 0, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !par.Best.Equal(serial.Best) || par.BestValue != serial.BestValue {
			t.Errorf("workers=%d: (%v, %v) vs serial (%v, %v)",
				workers, par.Best, par.BestValue, serial.Best, serial.BestValue)
		}
		if par.Evaluations != serial.Evaluations {
			t.Errorf("workers=%d: %d evaluations vs %d", workers, par.Evaluations, serial.Evaluations)
		}
	}
}

func TestExhaustiveParallelTieBreak(t *testing.T) {
	// A flat objective: serial keeps the first lattice point; parallel
	// must agree.
	flat := func(x numeric.IntVector) (float64, error) { return 1.0, nil }
	serial, err := Exhaustive(context.Background(), flat, numeric.IntVector{1, 1}, numeric.IntVector{4, 4}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Best.Equal(numeric.IntVector{1, 1}) {
		t.Errorf("serial tie-break kept %v, want the first lattice point (1, 1)", serial.Best)
	}
	par, err := Exhaustive(context.Background(), flat, numeric.IntVector{1, 1}, numeric.IntVector{4, 4}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Best.Equal(serial.Best) {
		t.Errorf("tie-break differs: %v vs %v", par.Best, serial.Best)
	}
}

func TestExhaustiveParallelConcurrencyActuallyHappens(t *testing.T) {
	var calls atomic.Int64
	obj := func(x numeric.IntVector) (float64, error) {
		calls.Add(1)
		return float64(x[0]), nil
	}
	res, err := Exhaustive(context.Background(), obj, numeric.IntVector{1}, numeric.IntVector{100}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 || res.Best[0] != 1 {
		t.Errorf("calls=%d best=%v", calls.Load(), res.Best)
	}
}

func TestExhaustiveParallelErrors(t *testing.T) {
	boom := errors.New("boom")
	objErr := func(x numeric.IntVector) (float64, error) {
		if x[0] == 3 {
			return 0, boom
		}
		return 0, nil
	}
	ctx := context.Background()
	if _, err := Exhaustive(ctx, objErr, numeric.IntVector{1}, numeric.IntVector{5}, 0, 2); !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
	if _, err := Exhaustive(ctx, nil, numeric.IntVector{1}, numeric.IntVector{2}, 0, 2); err == nil {
		t.Error("expected nil-objective error")
	}
	if _, err := Exhaustive(ctx, quadratic(1), numeric.IntVector{3}, numeric.IntVector{1}, 0, 2); err == nil {
		t.Error("expected empty-box error")
	}
	if _, err := Exhaustive(ctx, quadratic(1, 1), numeric.IntVector{1, 1}, numeric.IntVector{500, 500}, 100, 2); err == nil {
		t.Error("expected size-cap error")
	}
	// workers < 1 means one worker.
	for _, workers := range []int{0, -3} {
		res, err := Exhaustive(ctx, quadratic(2), numeric.IntVector{1}, numeric.IntVector{5}, 0, workers)
		if err != nil || res.Best[0] != 2 || res.Evaluations != 5 {
			t.Errorf("workers=%d: %v, %v", workers, res, err)
		}
	}
}

func TestExhaustiveParallelMoreWorkersThanPoints(t *testing.T) {
	res, err := Exhaustive(context.Background(), quadratic(1), numeric.IntVector{1}, numeric.IntVector{3}, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 1 || res.Evaluations != 3 {
		t.Errorf("Best = %v after %d evaluations", res.Best, res.Evaluations)
	}
}
