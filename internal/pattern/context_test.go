package pattern

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/numeric"
)

// countdownCtx is a context.Context that reports cancellation after its
// Err method has been consulted a fixed number of times. It makes
// mid-search cancellation deterministic: no goroutines, no timers.
type countdownCtx struct {
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// ctxQuadratic is a smooth objective with minimum at (7, 7).
func ctxQuadratic(x numeric.IntVector) (float64, error) {
	dx, dy := float64(x[0]-7), float64(x[1]-7)
	return dx*dx + dy*dy + 1, nil
}

func TestSearchCancelledReturnsBestSoFar(t *testing.T) {
	// Allow the initial evaluation plus a handful of exploratory probes,
	// then cancel: the search must hand back the last committed base
	// point, not nothing.
	ctx := &countdownCtx{remaining: 4}
	res, err := Search(ctxQuadratic, numeric.IntVector{1, 1}, Options{
		Lo:      numeric.IntVector{1, 1},
		Hi:      numeric.IntVector{20, 20},
		Context: ctx,
	})
	if err == nil {
		t.Fatal("cancelled search returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Best == nil {
		t.Fatalf("cancelled search returned no best-so-far result: %+v", res)
	}
	if math.IsInf(res.BestValue, 1) || math.IsNaN(res.BestValue) {
		t.Fatalf("best-so-far value %v is not a real evaluation", res.BestValue)
	}
	if len(res.BasePoints) == 0 {
		t.Fatal("no base point was committed before cancellation")
	}
}

func TestSearchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search(ctxQuadratic, numeric.IntVector{1, 1}, Options{
		Lo:      numeric.IntVector{1, 1},
		Hi:      numeric.IntVector{20, 20},
		Context: ctx,
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("no point was evaluated, yet got result %+v", res)
	}
}

func TestSearchNilContextUnchanged(t *testing.T) {
	// The zero Options must behave exactly as before the Context field
	// existed.
	res, err := Search(ctxQuadratic, numeric.IntVector{1, 1}, Options{
		Lo: numeric.IntVector{1, 1},
		Hi: numeric.IntVector{20, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 7 || res.Best[1] != 7 {
		t.Fatalf("optimum %v, want (7, 7)", res.Best)
	}
}

func TestExhaustiveCtxCancelled(t *testing.T) {
	lo := numeric.IntVector{1, 1}
	hi := numeric.IntVector{30, 30}
	// Cancel partway through the scan; the partial best must come with a
	// wrapped ctx error and a positive evaluation count.
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{remaining: 50}
		res, err := Exhaustive(ctx, ctxQuadratic, lo, hi, 0, workers)
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: no partial result", workers)
		}
		if res.Best == nil {
			t.Fatalf("workers=%d: nothing evaluated before cancellation", workers)
		}
		if res.Evaluations <= 0 || res.Evaluations >= 30*30 {
			t.Fatalf("workers=%d: %d evaluations, want a partial scan", workers, res.Evaluations)
		}
	}
}

func TestExhaustiveCtxComplete(t *testing.T) {
	// An un-cancelled context changes nothing.
	res, err := Exhaustive(context.Background(), ctxQuadratic,
		numeric.IntVector{1, 1}, numeric.IntVector{10, 10}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 7 || res.Best[1] != 7 {
		t.Fatalf("optimum %v, want (7, 7)", res.Best)
	}
	if res.Evaluations != 100 {
		t.Fatalf("%d evaluations, want 100", res.Evaluations)
	}
}
