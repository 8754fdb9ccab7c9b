package solver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"auditgame/internal/game"
)

// cancelledCtx returns a context that is already done.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestCGGSCancelledBeforeFirstColumn(t *testing.T) {
	in := testInstance(t, 10)
	if _, err := CGGS(cancelledCtx(), in, game.Thresholds{2, 2, 2, 2}, CGGSOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExactCancelled(t *testing.T) {
	in := testInstance(t, 10)
	if _, err := Exact(cancelledCtx(), in, game.Thresholds{2, 2, 2, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestBruteForceCancelled(t *testing.T) {
	in := testInstance(t, 10)
	if _, err := BruteForce(cancelledCtx(), in); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestISHMCancelMidSearch cancels after the first inner solve and checks
// the search stops at the next threshold candidate, including under the
// parallel combo evaluator.
func TestISHMCancelMidSearch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		in := testInstance(t, 10)
		ctx, cancel := context.WithCancel(context.Background())
		var evals atomic.Int64
		inner := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
			if evals.Add(1) == 1 {
				cancel()
			}
			return Exact(context.Background(), in, b)
		}
		_, err := ISHM(ctx, in, ISHMOptions{
			Epsilon: 0.25, Inner: inner, EvaluateInitial: true, Workers: workers,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := evals.Load(); n > 64 {
			t.Fatalf("workers=%d: %d inner solves after cancellation", workers, n)
		}
	}
}

func TestGreedyDescentCancelled(t *testing.T) {
	in := testInstance(t, 10)
	if _, err := GreedyDescent(cancelledCtx(), in, GreedyDescentOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
