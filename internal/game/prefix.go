package game

import (
	"fmt"
	"math"
)

// PrefixPricer is the incremental pricing kernel behind the greedy CGGS
// oracle. The oracle grows one column a type at a time, so every
// candidate extension shares its entire prefix with the current partial
// ordering; re-walking that prefix against every realization row for
// every candidate is what made pricing one column cost ≈|T|³ row-steps.
//
// The pricer instead checkpoints the kernel state of the fixed prefix:
// Eq. 1's budget fold is order-independent in what it consumes — each
// prefix member takes min(z_t·C_t, b_t) regardless of position — so one
// number per realization row (the budget spent by the prefix) is the
// complete kernel state. Extending by candidate type t then evaluates
// only the appended position per row: O(rows) per candidate, O(|T|·rows)
// per greedy step, O(|T|²·rows) per column.
//
// Bitwise contract: ExtendDeltas' entry for t equals, bit for bit, the
// pal entry the batched kernel computes for pal(prefix+t)[t]. It is the
// kernel's own leaf step (palLeaf) over each chunk, against checkpoints
// that Advance folds with the same spentColumn additions in the same
// (prefix) order as the trie walk; rows chunk on the same palChunkRows
// boundaries and merge in chunk-index order; and the rows the walk's
// live lists would have dropped add exact zeros. A PrefixPricer is not
// safe for concurrent use.
type PrefixPricer struct {
	in *Instance
	b  Thresholds

	// capn[t] is type t's audit cap ⌊b_t/C_t⌋.
	capn []float64

	prefix   Ordering
	inPrefix []bool
	// pal is the prefix's detection-probability vector: entry t is the
	// checkpointed ExtendDelta of t at the step it was appended, zero for
	// types outside the prefix — bitwise-identical to the batched
	// kernel's pal(prefix) (absent types never audit).
	pal []float64
	// spent[zi] is realization row zi's budget consumed by the prefix.
	spent []float64
	// chunkMaxRem[c] is the largest remaining budget over chunk c's rows;
	// once it drops below a candidate's cost the whole chunk contributes
	// exactly zero for that candidate and is skipped.
	chunkMaxRem []float64
}

// NewPrefixPricer checkpoints the empty prefix of (in, b).
func NewPrefixPricer(in *Instance, b Thresholds) (*PrefixPricer, error) {
	nT := in.nT
	if len(b) != nT {
		return nil, fmt.Errorf("game: thresholds have %d entries, want |T| = %d", len(b), nT)
	}
	pp := &PrefixPricer{
		in:          in,
		b:           b.Clone(),
		capn:        make([]float64, nT),
		prefix:      make(Ordering, 0, nT),
		inPrefix:    make([]bool, nT),
		pal:         make([]float64, nT),
		spent:       make([]float64, len(in.ws)),
		chunkMaxRem: make([]float64, in.numChunks()),
	}
	for t := 0; t < nT; t++ {
		pp.capn[t] = math.Floor(b[t] / in.G.Types[t].Cost)
	}
	for c := range pp.chunkMaxRem {
		pp.chunkMaxRem[c] = in.Budget
	}
	return pp, nil
}

// Prefix returns the current partial ordering. The slice is the pricer's
// own state; callers must clone before retaining or mutating it.
func (pp *PrefixPricer) Prefix() Ordering { return pp.prefix }

// Pal returns the prefix's pal vector (shared state, do not mutate).
func (pp *PrefixPricer) Pal() []float64 { return pp.pal }

// Len returns the prefix length.
func (pp *PrefixPricer) Len() int { return len(pp.prefix) }

// ExtendDeltas evaluates Δpal_t — the appended-position detection
// probability of each candidate type, i.e. pal(prefix+t)[t] — for every
// candidate, in one chunked pass over the checkpointed rows. Candidates
// already in the prefix are invalid. The evaluation parallelizes over
// (chunk × candidate) cells and merges in chunk-index order, so results
// are bitwise-identical at every worker count.
func (pp *PrefixPricer) ExtendDeltas(cands []int) []float64 {
	for _, t := range cands {
		if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
			panic(fmt.Sprintf("game: ExtendDeltas candidate %d invalid for prefix %v", t, pp.prefix))
		}
	}
	in := pp.in
	nChunks := in.numChunks()
	partials := make([][]float64, nChunks)
	for c := range partials {
		partials[c] = make([]float64, len(cands))
	}
	// Each cell is one palLeaf step over all of its chunk's rows against
	// the checkpointed spent values. A chunk whose every remainder is
	// below one audit of t only holds rows that add exact zeros.
	in.palRun(nChunks*len(cands), len(in.ws)*len(cands), 0, func(u int, _ *trieScratch) {
		palFault()
		c, j := u/len(cands), u%len(cands)
		t := cands[j]
		if pp.chunkMaxRem[c] < in.G.Types[t].Cost {
			return
		}
		lo, hi := in.chunkSpan(c)
		partials[c][j] = in.palLeaf(t, lo, hi, pp.capn[t], pp.spent[lo:hi], allRows[:hi-lo])
	})

	deltas := make([]float64, len(cands))
	for c := 0; c < nChunks; c++ {
		for j, v := range partials[c] {
			deltas[j] += v
		}
	}
	return deltas
}

// Advance appends type t to the prefix, folding its budget consumption
// min(z_t·C_t, b_t) (the trie walk's spentColumn) into every row's
// checkpoint — the same addition, in the same prefix order, the full
// walk performs — and records delta (t's ExtendDeltas value) as the
// prefix pal entry.
func (pp *PrefixPricer) Advance(t int, delta float64) {
	if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
		panic(fmt.Sprintf("game: Advance type %d invalid for prefix %v", t, pp.prefix))
	}
	in := pp.in
	budget := in.Budget
	sp := in.spentColumn(t, pp.b[t])
	spent := pp.spent
	for c := range pp.chunkMaxRem {
		lo, hi := in.chunkSpan(c)
		maxRem := 0.0
		for zi := lo; zi < hi; zi++ {
			s := spent[zi] + sp[zi]
			spent[zi] = s
			if rem := budget - s; rem > maxRem {
				maxRem = rem
			}
		}
		pp.chunkMaxRem[c] = maxRem
	}
	pp.prefix = append(pp.prefix, t)
	pp.inPrefix[t] = true
	pp.pal[t] = delta
}
