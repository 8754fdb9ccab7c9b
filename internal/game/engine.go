package game

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"auditgame/internal/fault"
)

// This file is the entry to the detection-probability evaluation
// engine and holds its one Eq. 1 kernel: the leaf and fold row steps
// (palLeaf, palFold) and the worker pool (palRun) that every walk —
// the trie walk behind Pal and PalBatch (trie.go), the grid sweep
// (grid.go) and the prefix pricer (prefix.go) — runs on. There is no
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

// palParallelMinWork is the rows × (orderings or candidates) product
// below which palRun stays serial; tiny evaluations aren't worth
// goroutines.
const palParallelMinWork = 8192

// workerCount resolves the sharding width for one evaluation: Workers
// when set, else GOMAXPROCS, clamped to the work-unit count and to 1
// when the total work is too small to amortize goroutine handoff.
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

// numChunks returns the number of palChunkRows-row realization chunks.
func (in *Instance) numChunks() int {
	return (len(in.ws) + palChunkRows - 1) / palChunkRows
}

// chunkSpan returns chunk c's row range [lo, hi).
func (in *Instance) chunkSpan(c int) (lo, hi int) {
	lo = c * palChunkRows
	return lo, min(lo+palChunkRows, len(in.ws))
}

// palLeaf is the leaf step of Eq. 1 over chunk [lo, hi): the summed
// contribution w·n_t/Z′_t of type t over the live rows (chunk-relative,
// in list order), where each row enters with the budget spent[rr] its
// prefix consumed and audits n_t = min(⌊(B − spent)/C_t⌋, capK, Z′_t)
// alerts. A row with n_t ≤ 0 adds nothing, so dropping it from live
// leaves the sum unchanged to the bit.
func (in *Instance) palLeaf(t, lo, hi int, capK float64, spent []float64, live []int32) float64 {
	budget := in.Budget
	ct := in.G.Types[t].Cost
	ws, zeff, recip := in.palCols(t, lo, hi)
	var a float64
	if ct == 1 {
		// Division-free twin of the loop below; x/1 == x, so the two
		// agree to the bit and this one only saves the divide.
		for _, rr := range live {
			nt := math.Floor(budget - spent[rr])
			if capK < nt {
				nt = capK
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
		}
		return a
	}
	for _, rr := range live {
		nt := math.Floor((budget - spent[rr]) / ct)
		if capK < nt {
			nt = capK
		}
		if z := zeff[rr]; z < nt {
			nt = z
		}
		if nt > 0 {
			a += ws[rr] * nt * recip[rr]
		}
	}
	return a
}

// palFold is the interior step of Eq. 1 at depth d of a walk over chunk
// [lo, hi): palLeaf's contribution over the rows live at depth d−1,
// plus the fold. Each such row consumes spCol[row] = min(z_t·C_t, b_t),
// its new spent budget is written to the depth-d checkpoint, and it
// stays live at depth d while its remainder still affords cm, the
// cheapest audit cost below this position. A row that leaves the live
// list could only have added exact zeros further down.
func (in *Instance) palFold(sc *trieScratch, d, t, lo, hi int, capK, cm float64, spCol []float64) float64 {
	n := hi - lo
	budget := in.Budget
	ct := in.G.Types[t].Cost
	ws, zeff, recip := in.palCols(t, lo, hi)
	sp := spCol[lo:hi]
	spent, live := sc.at(d, n)
	cur := sc.spent[d*palChunkRows : d*palChunkRows+n]
	keep := sc.live[d][:0]
	var a float64
	if ct == 1 {
		for _, rr := range live {
			s := spent[rr]
			nt := math.Floor(budget - s)
			if capK < nt {
				nt = capK
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
			ns := s + sp[rr]
			cur[rr] = ns
			if budget-ns >= cm {
				keep = append(keep, rr)
			}
		}
	} else {
		for _, rr := range live {
			s := spent[rr]
			nt := math.Floor((budget - s) / ct)
			if capK < nt {
				nt = capK
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
			ns := s + sp[rr]
			cur[rr] = ns
			if budget-ns >= cm {
				keep = append(keep, rr)
			}
		}
	}
	sc.live[d] = keep
	return a
}

// palCols returns chunk [lo, hi) of the realization weights and of type
// t's Z′ = max(Z, 1) and 1/Z′ columns.
func (in *Instance) palCols(t, lo, hi int) (ws, zeff, recip []float64) {
	off := t * len(in.ws)
	return in.ws[lo:hi], in.zeffT[off+lo : off+hi], in.zrecipT[off+lo : off+hi]
}

// palFault fires the PalWorker injection point; a kernel walk calls it
// at the start of each of its work units. The kernel has no error
// return, so an injected error becomes a panic, which palRun (or, on the
// serial path, the solver entry guard) turns back into a typed error.
func palFault() {
	if err := fault.Inject(fault.PalWorker); err != nil {
		panic(err)
	}
}

// palPanic carries the first panic recovered in a pal worker goroutine
// back to the dispatching goroutine for re-raising.
type palPanic struct{ val any }

// palRun runs work units 0..nUnits−1 of one kernel call, each on a
// worker holding a pooled trieScratch at least maxDepth deep. Workers
// pull unit indices from a shared counter; with workerCount at 1 the
// units run in index order on the calling goroutine. Units must write disjoint
// state, so results never depend on which worker ran which unit.
//
// Panic containment: a panicking worker must not kill the process
// (callers above the solver entry points expect a typed error) and
// must not strand its siblings. The first panic value is captured, the
// panicking worker exits, the others drain the remaining units, and the
// panic is re-raised on the calling goroutine, where the solver entry
// guard converts it to a *SolveError.
func (in *Instance) palRun(nUnits, work, maxDepth int, unit func(u int, sc *trieScratch)) {
	workers := in.workerCount(nUnits, work)
	if workers <= 1 {
		sc := in.getTrieScratch(maxDepth)
		for u := 0; u < nUnits; u++ {
			unit(u, sc)
		}
		in.scratch.Put(sc)
		return
	}
	var panicked atomic.Pointer[palPanic]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &palPanic{val: r})
				}
			}()
			sc := in.getTrieScratch(maxDepth)
			for {
				u := int(next.Add(1)) - 1
				if u >= nUnits {
					in.scratch.Put(sc)
					return
				}
				unit(u, sc)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}
