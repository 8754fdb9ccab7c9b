package solver

import (
	"context"
	"fmt"
	"math"

	"auditgame/internal/game"
)

// GreedyDescent is an alternative threshold search to ISHM: coordinate
// descent on the integer threshold grid. Starting from the full-coverage
// caps, it repeatedly tries moving one type's threshold up or down by one
// audit-cost step, takes the best improving move, and stops at a local
// minimum. It explores far fewer vectors than ISHM's subset-shrink
// schedule but can miss coordinated multi-type moves; the comparison is
// one of the repository's ablation studies.
type GreedyDescentResult struct {
	Policy *MixedPolicy
	// Evaluations counts inner LP solves (comparable to
	// ISHMResult.Evaluations).
	Evaluations int
	// Moves counts accepted descent steps.
	Moves int
}

// GreedyDescentOptions tunes the descent.
type GreedyDescentOptions struct {
	// Inner solves the fixed-threshold LP; nil picks ExactInner for
	// ≤ 6 types, else CGGSInner.
	Inner Inner
	// MaxMoves caps accepted steps. Zero means 50·|T|.
	MaxMoves int
}

// GreedyDescent runs the coordinate search. The context is checked
// before every inner LP solve.
func GreedyDescent(ctx context.Context, in *game.Instance, opts GreedyDescentOptions) (*GreedyDescentResult, error) {
	inner := opts.Inner
	if inner == nil {
		if in.G.NumTypes() <= 6 {
			inner = ExactInner
		} else {
			inner = CGGSInner
		}
	}
	nT := in.G.NumTypes()
	maxMoves := opts.MaxMoves
	if maxMoves == 0 {
		maxMoves = 50 * nT
	}

	caps := in.G.ThresholdCaps()
	cur := game.Thresholds(caps).Clone()

	res := &GreedyDescentResult{}
	memo := map[string]*MixedPolicy{}
	eval := func(b game.Thresholds) (*MixedPolicy, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Evaluations++
		if pol, ok := memo[b.Key()]; ok {
			return pol, nil
		}
		pol, err := inner(ctx, in, b)
		if err != nil {
			return nil, err
		}
		memo[b.Key()] = pol
		return pol, nil
	}

	best, err := eval(cur)
	if err != nil {
		return nil, err
	}
	for res.Moves < maxMoves {
		var bestMove *MixedPolicy
		var bestVec game.Thresholds
		for t := 0; t < nT; t++ {
			step := in.G.Types[t].Cost
			for _, delta := range []float64{-step, step} {
				nv := cur[t] + delta
				if nv < 0 || nv > caps[t]+1e-9 {
					continue
				}
				cand := cur.Clone()
				cand[t] = nv
				pol, err := eval(cand)
				if err != nil {
					return nil, err
				}
				if pol.Objective < best.Objective-1e-12 &&
					(bestMove == nil || pol.Objective < bestMove.Objective) {
					bestMove = pol
					bestVec = cand
				}
			}
		}
		if bestMove == nil {
			break
		}
		best = bestMove
		cur = bestVec
		res.Moves++
	}
	res.Policy = best
	return res, nil
}

// DescentVsISHM runs both threshold searches on the same instance and
// returns their results for comparison; it exists so the ablation bench
// and tests share one code path.
func DescentVsISHM(ctx context.Context, in *game.Instance, epsilon float64) (*GreedyDescentResult, *ISHMResult, error) {
	gd, err := GreedyDescent(ctx, in, GreedyDescentOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("solver: descent: %w", err)
	}
	is, err := ISHM(ctx, in, ISHMOptions{Epsilon: epsilon, EvaluateInitial: true})
	if err != nil {
		return nil, nil, fmt.Errorf("solver: ishm: %w", err)
	}
	return gd, is, nil
}

// Gap returns the relative objective gap of a versus b, using the larger
// magnitude as the scale; 0 means identical.
func Gap(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}
