package game

import "math"

// A brute-force sweep evaluates the same ordering batch at every integer
// threshold vector of a grid — and re-walks the whole trie per grid
// point, even though a trie node at depth d depends only on the
// thresholds of the d+1 types on its root path. This file sweeps the
// grid INSIDE the trie walk: each node nests a loop over its own type's
// threshold values around the usual row fold, so a depth-0 node's row
// sums are computed once per threshold value instead of once per grid
// point. It is the PrefixPricer's budget-checkpoint sharing (prefix.go)
// applied across the threshold grid instead of along one ordering.
//
// Bitwise contract: Pals(ks) equals PalBatch(os, b(ks)) bit for
// bit. Per (node, threshold-prefix) the sweep takes the palLeaf or
// palFold step the fixed-threshold walk takes at that node, over the
// same live rows of the same chunks, and chunk partials accumulate into
// the table in chunk-index order — the same merge order palCompute
// uses. Subtrees whose live set empties are still traversed (their grid
// points need the ancestors' contributions), their steps running over
// no rows; the skipped positions contribute exact zeros, as in the
// fixed-threshold walk.

// PalGrid is the detection-probability table of one ordering batch
// swept over a full integer threshold grid by PalGridSweep.
type PalGrid struct {
	nT     int
	nOs    int
	stride []int
	data   []float64 // [gridIdx][ordering][type], gridIdx = Σ ks[t]·stride[t]
}

// Pals returns the pal vectors — one per ordering, indexed as the swept
// batch — at the grid point with threshold multiples ks (b_t = ks[t]·C_t).
// The returned slices alias the table; callers must not write them.
func (pg *PalGrid) Pals(ks []int) [][]float64 {
	idx := 0
	for t, k := range ks {
		idx += k * pg.stride[t]
	}
	base := idx * pg.nOs * pg.nT
	out := make([][]float64, pg.nOs)
	for o := range out {
		lo := base + o*pg.nT
		out[o] = pg.data[lo : lo+pg.nT : lo+pg.nT]
	}
	return out
}

// maxPalGridCells caps the sweep table (float64 count, ≈ 64 MB). Grids
// past it — |T| = 6 brute forces can reach gigabytes — fall back to
// per-point evaluation.
const maxPalGridCells = 8 << 20

// PalGridSweep evaluates every ordering of os at every threshold vector
// b_t = k_t·C_t, k_t ∈ {0, …, steps[t]}, and returns the table. It
// returns nil — callers fall back to per-point evaluation — when the
// table would exceed maxPalGridCells or the batch is not made of
// distinct full permutations (the leaf-emission scheme needs a unique
// leaf per ordering).
func (in *Instance) PalGridSweep(os []Ordering, steps []int) *PalGrid {
	nT := in.nT
	nRows := len(in.ws)
	cells := len(os) * nT
	if cells == 0 || nRows == 0 {
		return nil
	}
	stride := make([]int, nT)
	nGrid := 1
	for t := nT - 1; t >= 0; t-- {
		stride[t] = nGrid
		if steps[t] < 0 || nGrid > maxPalGridCells/(steps[t]+1)/cells {
			return nil
		}
		nGrid *= steps[t] + 1
	}
	for _, o := range os {
		if len(o) != nT {
			return nil
		}
	}
	tr := in.buildPalTrie(os, make(Thresholds, nT))
	nNodes := len(tr.typ)
	leafOrd := make([]int32, nNodes)
	for i := range leafOrd {
		leafOrd[i] = -1
	}
	for k, p := range tr.path {
		leaf := p[len(p)-1]
		if tr.skip[leaf] != leaf+1 || leafOrd[leaf] >= 0 {
			return nil // duplicate ordering: no unique leaf to emit at
		}
		leafOrd[leaf] = int32(k)
	}

	// Per-(node, k) threshold data resolved up front, so walk workers
	// never touch the spentColumn mutex: the swept consumption columns
	// min(z_t·C_t, b_t) and caps ⌊b_t/C_t⌋ at b_t = k·C_t — the exact
	// expressions the fixed-threshold trie build evaluates.
	spColK := make([][][]float64, nNodes)
	capK := make([][]float64, nNodes)
	for i := 0; i < nNodes; i++ {
		t := int(tr.typ[i])
		ct := tr.cost[i]
		spColK[i] = make([][]float64, steps[t]+1)
		capK[i] = make([]float64, steps[t]+1)
		for k := 0; k <= steps[t]; k++ {
			bt := float64(k) * ct
			spColK[i][k] = in.spentColumn(t, bt)
			capK[i][k] = math.Floor(bt / ct)
		}
	}

	pg := &PalGrid{nT: nT, nOs: len(os), stride: stride, data: make([]float64, nGrid*len(os)*nT)}
	nChunks := in.numChunks()

	// Work units are root subtrees: two roots emit into disjoint table
	// regions (their leaf orderings differ in the first type), while one
	// root's chunks must accumulate in chunk-index order, so each unit
	// walks its chunks serially, one PalWorker fault hit per (root, chunk).
	in.palRun(len(tr.rootAt)-1, nRows*len(os), tr.maxDepth, func(r int, sc *trieScratch) {
		for c := 0; c < nChunks; c++ {
			palFault()
			lo, hi := in.chunkSpan(c)
			in.palGridChunk(tr, lo, hi, r, spColK, capK, leafOrd, pg, sc)
		}
	})
	in.palEvals.Add(int64(nGrid * len(os)))
	return pg
}

// palGridChunk walks root subtree r over rows [lo, hi), sweeping each
// node's threshold values and accumulating each ordering's per-position
// sums into the table at that ordering's leaf. Each (node, threshold)
// is one palLeaf or palFold step; see the contract at the top of the
// file.
func (in *Instance) palGridChunk(tr *palTrie, lo, hi, r int, spColK [][][]float64, capK [][]float64, leafOrd []int32, pg *PalGrid, sc *trieScratch) {
	n := hi - lo
	skip := tr.skip
	nOs, nT := pg.nOs, pg.nT
	stride := pg.stride
	data := pg.data
	typStack, contrib := sc.typStack, sc.contrib

	var walkNode func(i int32, d int, idx int)
	walkRange := func(s, e int32, d int, idx int) {
		for i := s; i < e; i = skip[i] {
			walkNode(i, d, idx)
		}
	}
	walkNode = func(i int32, d int, idx int) {
		spent, live := sc.at(d, n)
		t := int(tr.typ[i])
		typStack[d] = tr.typ[i]
		leaf := skip[i] == i+1
		for k, capk := range capK[i] {
			if leaf {
				contrib[d] = in.palLeaf(t, lo, hi, capk, spent, live)
				base := ((idx+k*stride[t])*nOs + int(leafOrd[i])) * nT
				for dd := 0; dd <= d; dd++ {
					data[base+int(typStack[dd])] += contrib[dd]
				}
			} else {
				contrib[d] = in.palFold(sc, d, t, lo, hi, capk, tr.childMin[i], spColK[i][k])
				walkRange(i+1, skip[i], d+1, idx+k*stride[t])
			}
		}
	}
	walkRange(tr.rootAt[r], tr.rootAt[r+1], 0, 0)
}
