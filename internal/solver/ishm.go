package solver

import (
	"context"
	"fmt"
	"math"
	"sync"

	"auditgame/internal/game"
)

// ISHMResult carries the ISHM search outcome plus the exploration
// accounting reported in Table VII.
type ISHMResult struct {
	// Policy is the best mixed strategy found, at Policy.Thresholds.
	Policy *MixedPolicy
	// Evaluations counts threshold vectors submitted to the inner LP
	// (the paper's "number of threshold vectors checked").
	Evaluations int
	// UniqueEvaluations counts distinct vectors among those (repeat
	// visits are answered from a memo and still counted above).
	UniqueEvaluations int
}

// ISHMOptions tunes the threshold search.
type ISHMOptions struct {
	// Epsilon is the shrink step size ε ∈ (0,1) (Algorithm 2).
	Epsilon float64
	// Inner solves the fixed-threshold LP; nil means ExactInner for
	// |T| ≤ 6 and CGGSInner otherwise.
	Inner Inner
	// EvaluateInitial also scores the unshrunk full-coverage vector so
	// the search can never return something worse than it. Algorithm 2
	// initializes obj = +∞; the paper's tables are insensitive to this,
	// but returning a threshold vector worse than the starting point is
	// never useful, so the harness enables it.
	EvaluateInitial bool
	// MaxSubset caps the shrink-subset size lh (0 means |T|, the full
	// Algorithm 2 search). The confirmation sweep at level lh costs
	// C(|T|, lh)·⌈1/ε⌉ inner solves, so capping trades a little
	// solution quality for a combinatorial factor of wall-clock time on
	// games with many alert types.
	MaxSubset int
	// Workers evaluates the independent combos of each ratio level
	// concurrently (0 or 1 = serial). Results are identical to the
	// serial search: the level's winner is still chosen by objective
	// with the lowest combo index breaking ties.
	Workers int
	// NoQuantize disables snapping shrunk thresholds to the audit-cost
	// grid (multiples of C_t). Snapping is on by default because a
	// fractional threshold wastes its fractional part: the budget
	// recursion charges min(b_t, Z_t·C_t) against the total, so
	// b_t = 2.1 with C_t = 1 buys the same two audits as b_t = 2 while
	// leaking 0.1 of budget away from every later type — the paper's
	// tables accordingly report integer thresholds throughout. Disabling
	// quantization exists for the ablation benchmarks.
	NoQuantize bool
}

// ISHM runs the Iterative Shrink Heuristic Method (Algorithm 2): starting
// from the full-coverage threshold vector (F_t(b_t/C_t) ≈ 1), it
// repeatedly shrinks subsets of thresholds by ratios 1−i·ε, accepting the
// first improving shrink and restarting, and grows the subset size when no
// single ratio improves. The search ends when subsets of size |T| at every
// ratio fail to improve.
//
// The context is checked before every threshold-candidate evaluation
// (and inside the ctx-aware inner solvers), so cancellation latency is
// bounded by one inner LP solve.
func ISHM(ctx context.Context, in *game.Instance, opts ISHMOptions) (res *ISHMResult, err error) {
	defer contain("ishm", &err)
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("solver: ISHM epsilon %v outside (0,1)", opts.Epsilon)
	}
	inner := opts.Inner
	if inner == nil {
		if in.G.NumTypes() <= 6 {
			inner = ExactInner
		} else {
			inner = CGGSInner
		}
	}

	nT := in.G.NumTypes()
	caps := in.G.ThresholdCaps()
	cur := game.Thresholds(caps).Clone()

	result := &ISHMResult{}
	// memo answers repeated threshold vectors. Under Workers > 1 two
	// concurrent evaluations of one vector can both miss it; both
	// results are identical, so the second store is harmless and the
	// memo's size stays the count of distinct vectors.
	var memoMu sync.Mutex
	memo := map[string]*MixedPolicy{}
	eval := func(b game.Thresholds) (*MixedPolicy, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := b.Key()
		memoMu.Lock()
		result.Evaluations++
		if pol, ok := memo[key]; ok {
			memoMu.Unlock()
			return pol, nil
		}
		memoMu.Unlock()

		pol, err := inner(ctx, in, b)
		if err != nil {
			return nil, err
		}
		memoMu.Lock()
		memo[key] = pol
		memoMu.Unlock()
		return pol, nil
	}

	obj := math.Inf(1)
	var best *MixedPolicy
	if opts.EvaluateInitial {
		pol, err := eval(cur)
		if err != nil {
			return nil, err
		}
		obj, best = pol.Objective, pol
	}

	maxLH := nT
	if opts.MaxSubset > 0 && opts.MaxSubset < maxLH {
		maxLH = opts.MaxSubset
	}
	steps := int(math.Ceil(1 / opts.Epsilon))
	lh := 1
	for lh <= maxLH {
		combos := combinations(nT, lh)
		progress := 0
		improved := false
		for i := 1; i <= steps; i++ {
			ratio := math.Max(0, 1-float64(i)*opts.Epsilon)
			temps := make([]game.Thresholds, len(combos))
			for ci, combo := range combos {
				temp := cur.Clone()
				for _, t := range combo {
					temp[t] *= ratio
					if !opts.NoQuantize {
						ct := in.G.Types[t].Cost
						temp[t] = math.Round(temp[t]/ct) * ct
					}
				}
				temps[ci] = temp
			}
			pols, err := evalAll(temps, eval, opts.Workers)
			if err != nil {
				return nil, err
			}
			objR := math.Inf(1)
			var bestPol *MixedPolicy
			var bestTemp game.Thresholds
			for ci, pol := range pols {
				if pol.Objective < objR {
					objR = pol.Objective
					bestPol = pol
					bestTemp = temps[ci]
				}
			}
			if objR < obj {
				obj = objR
				best = bestPol
				cur = bestTemp
				improved = true
				break
			}
			progress = i
		}
		if improved {
			lh = 1
			continue
		}
		if progress == steps {
			lh++
		} else {
			lh = 1
		}
	}

	if best == nil {
		// No shrink ever improved over +∞ is impossible (every eval is
		// finite), but guard against an empty search.
		pol, err := eval(cur)
		if err != nil {
			return nil, err
		}
		best = pol
	}
	result.Policy = best
	result.UniqueEvaluations = len(memo)
	return result, nil
}

// evalAll evaluates candidate threshold vectors, concurrently when
// workers > 1. Slot ci of the result corresponds to temps[ci], so the
// caller's winner selection is identical to a serial sweep.
func evalAll(temps []game.Thresholds, eval func(game.Thresholds) (*MixedPolicy, error), workers int) ([]*MixedPolicy, error) {
	pols := make([]*MixedPolicy, len(temps))
	if workers <= 1 || len(temps) < 2 {
		for ci, temp := range temps {
			pol, err := eval(temp)
			if err != nil {
				return nil, err
			}
			pols[ci] = pol
		}
		return pols, nil
	}
	if workers > len(temps) {
		workers = len(temps)
	}
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		firstEr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				// Contain per evaluation: a panic in a worker (its own,
				// or re-raised from the pal kernel) becomes this combo's
				// error instead of killing the process, and the worker
				// keeps draining the channel so the dispatch loop below
				// never blocks on a dead consumer.
				pol, err := func() (p *MixedPolicy, err error) {
					defer contain("ishm.worker", &err)
					return eval(temps[ci])
				}()
				if err != nil {
					errMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					errMu.Unlock()
					continue
				}
				pols[ci] = pol
			}
		}()
	}
	for ci := range temps {
		next <- ci
	}
	close(next)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return pols, nil
}

// combinations returns all size-k subsets of 0..n-1 in lexicographic
// order, matching Algorithm 2's choose(|T|, lh).
func combinations(n, k int) [][]int {
	if k <= 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
