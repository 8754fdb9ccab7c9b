package game

import (
	"runtime"
)

// palPanic carries the first panic recovered in a pal worker goroutine
// back to the dispatching goroutine for re-raising.
type palPanic struct{ val any }

// This file is the entry to the detection-probability evaluation
// engine: Pal and PalBatch run the trie kernel (trie.go), which
// evaluates a batch of orderings in one pass over the realization
// matrix, optionally sharding realizations across workers. There is no
// result cache: every call evaluates, and callers that revisit an
// (ordering, threshold) pair keep the vector they were handed.
//
// Determinism contract: results are bitwise-identical at every worker
// count and for every batch an ordering is evaluated in. The
// realization matrix is cut into fixed-size chunks whose boundaries
// depend only on the data; each chunk accumulates into its own scratch,
// and partial sums are merged in chunk-index order. The serial path runs
// the same chunked reduction, so "parallel equals serial" holds to the
// last bit rather than up to floating-point reassociation.

// Pal returns the per-type detection probabilities Pal(o,b,t) of Eq. 1:
// the expected audited fraction of type-t alerts under ordering o and
// thresholds b. Types absent from a partial ordering o get probability 0.
//
// The expectation follows the paper's budget recursion: under realization
// Z, earlier types in the order consume min{b_t, Z_t·C_t} budget; the
// budget left for type t admits ⌊·/C_t⌋ audits, further capped by the
// threshold and the realized count. Eq. 1's ratio n_t/Z_t is evaluated at
// Z′_t = max(Z_t, 1): the attack's own alert makes the bin non-empty, and
// the "attacks are rare" approximation keeps benign consumption at Z_t.
//
// The returned slice is freshly allocated and owned by the caller.
func (in *Instance) Pal(o Ordering, b Thresholds) []float64 {
	return in.PalBatch([]Ordering{o}, b)[0]
}

// PalBatch returns Pal(o,b) for every ordering in os, evaluated together
// in a single pass over the realization matrix. Row k of the result
// corresponds to os[k]; rows are freshly allocated and owned by the
// caller; an empty batch returns nil without touching the kernel.
// Batching shares prefix work across orderings and gives the parallel
// kernel enough work to shard realizations across workers.
func (in *Instance) PalBatch(os []Ordering, b Thresholds) [][]float64 {
	if len(os) == 0 {
		return nil
	}
	pals := in.palCompute(os, b)
	in.palEvals.Add(int64(len(os)))
	return pals
}

// PalsFor returns Pal(Q[i], b) for every column of a policy that can
// enter a best response — every i with po[i] ≠ 0 — evaluated in one
// PalBatch, leaving nil rows for the rest.
func (in *Instance) PalsFor(Q []Ordering, po []float64, b Thresholds) [][]float64 {
	out := make([][]float64, len(Q))
	var idx []int
	var support []Ordering
	for i, o := range Q {
		if po[i] != 0 {
			idx = append(idx, i)
			support = append(support, o)
		}
	}
	for j, pal := range in.PalBatch(support, b) {
		out[idx[j]] = pal
	}
	return out
}

// palChunkRows is the fixed realization-chunk size. Boundaries depend
// only on the matrix, never on the worker count, which is what makes the
// merged result independent of parallelism.
const palChunkRows = 1024

// palParallelMinWork is the rows×orderings product below which the
// dispatch loop stays serial; tiny evaluations aren't worth goroutines.
const palParallelMinWork = 8192

// workerCount resolves the sharding width for one evaluation: Workers
// when set, else GOMAXPROCS, clamped to the (chunk × ordering) work-unit
// count and to 1 when the total work is too small to amortize goroutine
// handoff.
func (in *Instance) workerCount(nUnits, work int) int {
	w := in.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nUnits {
		w = nUnits
	}
	if work < palParallelMinWork {
		return 1
	}
	return w
}

// PalEvals returns the number of orderings the kernel has evaluated on
// this instance through Pal and PalBatch (one per batch row) and
// PalGridSweep (one per ordering and grid point) — the Table VII-style
// work count the solver stats and benchmarks report.
func (in *Instance) PalEvals() int {
	return int(in.palEvals.Load())
}

// NumRealizations returns the number of distinct realization rows the
// engine iterates — the materialized source size after weight-merging
// deduplication.
func (in *Instance) NumRealizations() int { return len(in.ws) }
