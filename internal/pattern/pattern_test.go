package pattern

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

// quadratic returns an objective with minimum at the given point.
func quadratic(min ...int) Objective {
	return func(x numeric.IntVector) (float64, error) {
		s := 0.0
		for i := range x {
			d := float64(x[i] - min[i])
			s += d * d
		}
		return s, nil
	}
}

func TestSearchFindsQuadraticMinimum(t *testing.T) {
	res, err := Search(quadratic(6, 3), numeric.IntVector{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{6, 3}) {
		t.Errorf("Best = %v, want (6,3)", res.Best)
	}
	if res.BestValue != 0 {
		t.Errorf("BestValue = %v", res.BestValue)
	}
	if len(res.BasePoints) < 2 {
		t.Errorf("expected several base points, got %d", len(res.BasePoints))
	}
}

func TestSearchLargeStepsAccelerate(t *testing.T) {
	target := []int{40, 40}
	small, err := Search(quadratic(target...), numeric.IntVector{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Search(quadratic(target...), numeric.IntVector{1, 1},
		Options{InitialStep: numeric.IntVector{8, 8}, MaxHalvings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !small.Best.Equal(numeric.IntVector(target)) || !big.Best.Equal(numeric.IntVector(target)) {
		t.Fatalf("missed minimum: small %v big %v", small.Best, big.Best)
	}
	// The pattern move doubles along the ridge, so evaluation counts stay
	// modest either way; larger steps must not be worse by much.
	if big.Evaluations > small.Evaluations*2 {
		t.Errorf("big-step search used %d evals vs %d", big.Evaluations, small.Evaluations)
	}
}

func TestSearchRespectsBounds(t *testing.T) {
	// Unconstrained minimum at (0, 0) but the default box floors at 1.
	res, err := Search(quadratic(0, 0), numeric.IntVector{4, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{1, 1}) {
		t.Errorf("Best = %v, want (1,1)", res.Best)
	}
	// Upper bound clamps too.
	res2, err := Search(quadratic(9, 9), numeric.IntVector{2, 2},
		Options{Hi: numeric.IntVector{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Best.Equal(numeric.IntVector{5, 5}) {
		t.Errorf("Best = %v, want (5,5)", res2.Best)
	}
}

func TestSearchClampsStart(t *testing.T) {
	res, err := Search(quadratic(3), numeric.IntVector{-10},
		Options{Hi: numeric.IntVector{8}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{3}) {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestSearchMemoisation(t *testing.T) {
	calls := map[string]int{}
	obj := func(x numeric.IntVector) (float64, error) {
		calls[x.Key()]++
		return quadraticVal(x, 4, 4), nil
	}
	res, err := Search(obj, numeric.IntVector{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range calls {
		if c > 1 {
			t.Errorf("point %s evaluated %d times; cache should dedupe", k, c)
		}
	}
	if res.CacheHits == 0 {
		t.Error("expected some cache hits")
	}
}

func quadraticVal(x numeric.IntVector, min ...int) float64 {
	s := 0.0
	for i := range x {
		d := float64(x[i] - min[i])
		s += d * d
	}
	return s
}

func TestSearchObjectiveError(t *testing.T) {
	boom := errors.New("boom")
	obj := func(x numeric.IntVector) (float64, error) {
		if x[0] > 2 {
			return 0, boom
		}
		return -float64(x[0]), nil
	}
	if _, err := Search(obj, numeric.IntVector{1}, Options{}); !errors.Is(err, boom) {
		t.Fatalf("expected objective error, got %v", err)
	}
}

func TestSearchEvaluationBudget(t *testing.T) {
	// Unbounded descent: objective decreases forever, budget must stop it.
	obj := func(x numeric.IntVector) (float64, error) { return -float64(x[0]), nil }
	_, err := Search(obj, numeric.IntVector{1}, Options{MaxEvaluations: 25})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestSearchOptionValidation(t *testing.T) {
	if _, err := Search(nil, numeric.IntVector{1}, Options{}); err == nil {
		t.Error("expected nil-objective error")
	}
	if _, err := Search(quadratic(1), numeric.IntVector{}, Options{}); err == nil {
		t.Error("expected empty-start error")
	}
	if _, err := Search(quadratic(1), numeric.IntVector{1},
		Options{InitialStep: numeric.IntVector{0}}); err == nil {
		t.Error("expected bad-step error")
	}
	if _, err := Search(quadratic(1), numeric.IntVector{1},
		Options{Lo: numeric.IntVector{5}, Hi: numeric.IntVector{2}}); err == nil {
		t.Error("expected empty-box error")
	}
	if _, err := Search(quadratic(1, 1), numeric.IntVector{1, 1},
		Options{Lo: numeric.IntVector{1}}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestSearchNaNTreatedAsInf(t *testing.T) {
	obj := func(x numeric.IntVector) (float64, error) {
		if x[0] == 2 {
			return math.NaN(), nil
		}
		return quadraticVal(x, 5), nil
	}
	res, err := Search(obj, numeric.IntVector{1}, Options{InitialStep: numeric.IntVector{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] == 2 {
		t.Error("NaN point selected as best")
	}
}

// Property: the search never returns a point worse than its start.
func TestSearchNeverWorseProperty(t *testing.T) {
	f := func(seed int64, sx, sy uint8) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / float64(1<<53)
		}
		// Random smooth-ish bowl with random centre and tilt.
		cx := float64(int(next()*20) + 1)
		cy := float64(int(next()*20) + 1)
		ax := next() + 0.5
		ay := next() + 0.5
		obj := func(x numeric.IntVector) (float64, error) {
			dx, dy := float64(x[0])-cx, float64(x[1])-cy
			return ax*dx*dx + ay*dy*dy + 0.3*dx*dy, nil
		}
		start := numeric.IntVector{int(sx%20) + 1, int(sy%20) + 1}
		fStart, _ := obj(start)
		res, err := Search(obj, start, Options{})
		if err != nil {
			return false
		}
		return res.BestValue <= fStart+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExhaustive(t *testing.T) {
	res, err := Exhaustive(context.Background(), quadratic(3, 7), numeric.IntVector{1, 1}, numeric.IntVector{10, 10}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(numeric.IntVector{3, 7}) {
		t.Errorf("Best = %v", res.Best)
	}
	if res.Evaluations != 100 {
		t.Errorf("Evaluations = %d, want 100", res.Evaluations)
	}
}

func TestExhaustiveErrors(t *testing.T) {
	if _, err := Exhaustive(context.Background(), nil, numeric.IntVector{1}, numeric.IntVector{2}, 0, 1); err == nil {
		t.Error("expected nil-objective error")
	}
	if _, err := Exhaustive(context.Background(), quadratic(1), numeric.IntVector{1}, numeric.IntVector{1, 2}, 0, 1); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := Exhaustive(context.Background(), quadratic(1), numeric.IntVector{3}, numeric.IntVector{1}, 0, 1); err == nil {
		t.Error("expected empty-box error")
	}
	if _, err := Exhaustive(context.Background(), quadratic(1, 1), numeric.IntVector{1, 1}, numeric.IntVector{1000, 1000}, 100, 1); err == nil {
		t.Error("expected size-cap error")
	}
	boom := errors.New("boom")
	objErr := func(x numeric.IntVector) (float64, error) { return 0, boom }
	if _, err := Exhaustive(context.Background(), objErr, numeric.IntVector{1}, numeric.IntVector{3}, 0, 1); !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

// Pattern search matches exhaustive search on random separable bowls
// (convex integer problems are its home turf).
func TestSearchMatchesExhaustiveOnBowls(t *testing.T) {
	f := func(seed int64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / float64(1<<53)
		}
		cx := float64(int(next()*8) + 1)
		cy := float64(int(next()*8) + 1)
		obj := func(x numeric.IntVector) (float64, error) {
			dx, dy := float64(x[0])-cx, float64(x[1])-cy
			return dx*dx + 2*dy*dy, nil
		}
		ex, err := Exhaustive(context.Background(), obj, numeric.IntVector{1, 1}, numeric.IntVector{9, 9}, 0, 1)
		if err != nil {
			return false
		}
		ps, err := Search(obj, numeric.IntVector{1, 1}, Options{Hi: numeric.IntVector{9, 9}})
		if err != nil {
			return false
		}
		return ps.BestValue <= ex.BestValue+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
