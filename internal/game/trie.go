package game

import (
	"math"
	"sync"
)

// Batched orderings share work through their common prefixes: the budget
// recursion of Eq. 1 is a left fold over an ordering's positions, so two
// orderings agreeing on their first k types perform identical work on
// every realization row for those k positions. This file builds a prefix
// trie over a batch and walks each realization row once over the trie
// instead of once per (ordering, position) — the batches every solver
// issues (all |T|! orderings of an exact master on small games, the growing
// column pool of a restricted master, the exhaustive pricing oracle)
// are exactly the prefix-heavy shape where this collapses most of the
// kernel work.
//
// Determinism/equivalence contract: the trie walk is bitwise-identical
// to walking each ordering independently. Each trie node accumulates the
// contribution of its own (prefix, type) position over a chunk's rows in
// row order — one palLeaf or palFold step (engine.go), the same
// floating-point operations, in the same order, as the per-ordering
// reference kernel (trie_test.go) performs at that position — and
// per-ordering results are assembled by summing each path node across
// chunks in chunk-index order, exactly as the per-ordering kernel merged
// its chunk partials. Subtree skipping (below) only ever skips positions
// whose contribution is zero, so it changes work, never results.

// palTrie is the flattened prefix trie of one ordering batch, laid out
// in DFS order so a subtree is a contiguous index range.
type palTrie struct {
	typ    []int32   // alert type at this node's position
	cost   []float64 // audit cost C_t of typ
	capn   []float64 // audit cap ⌊b_t/C_t⌋ of typ
	bthr   []float64 // threshold b_t of typ
	subMin []float64 // min audit cost over this node's whole subtree
	// childMin is the min audit cost over the node's strict descendants
	// (+Inf at leaves): rows whose post-fold remainder is below it
	// contribute exactly zero everywhere below and leave the live set.
	childMin []float64
	// spCol[node] is the node type's budget-consumption column
	// min(z_t·C_t, b_t) over all rows, shared via the instance's
	// spentColumn cache.
	spCol [][]float64
	skip  []int32 // DFS index just past this node's subtree
	depth []int32 // node depth (root children are depth 0)
	// rootAt[r] is the DFS start of the r-th depth-0 subtree; a trailing
	// sentinel holds the node count, so subtree r spans
	// [rootAt[r], rootAt[r+1]). Root subtrees are the independent work
	// units of the parallel walk: each starts from zero spent budget.
	rootAt []int32
	// path[k][i] is the node index of ordering k's i-th position.
	path     [][]int32
	maxDepth int
}

// trieBuildNode is the temporary linked form used during insertion;
// children keep first-appearance order so the flattened DFS order — and
// with it every accumulation order — depends only on the batch, never
// on map iteration.
type trieBuildNode struct {
	t        int32
	children []int32
}

// buildPalTrie inserts the batch into a prefix trie and flattens it.
func (in *Instance) buildPalTrie(os []Ordering, b Thresholds) *palTrie {
	nodes := make([]trieBuildNode, 0, len(os)*4)
	var roots []int32
	paths := make([][]int32, len(os))
	childOf := func(kids []int32, t int32) int32 {
		for _, c := range kids {
			if nodes[c].t == t {
				return c
			}
		}
		return -1
	}
	for k, o := range os {
		parent := int32(-1) // -1: attach to the root list
		path := make([]int32, len(o))
		for i, ti := range o {
			t := int32(ti)
			var kids []int32
			if parent < 0 {
				kids = roots
			} else {
				kids = nodes[parent].children
			}
			c := childOf(kids, t)
			if c < 0 {
				c = int32(len(nodes))
				nodes = append(nodes, trieBuildNode{t: t})
				// Link by index, never through a pointer held across the
				// append above — growing nodes relocates its backing array.
				if parent < 0 {
					roots = append(roots, c)
				} else {
					nodes[parent].children = append(nodes[parent].children, c)
				}
			}
			path[i] = c
			parent = c
		}
		paths[k] = path
	}

	tr := &palTrie{
		typ:      make([]int32, len(nodes)),
		cost:     make([]float64, len(nodes)),
		capn:     make([]float64, len(nodes)),
		bthr:     make([]float64, len(nodes)),
		subMin:   make([]float64, len(nodes)),
		childMin: make([]float64, len(nodes)),
		spCol:    make([][]float64, len(nodes)),
		skip:     make([]int32, len(nodes)),
		depth:    make([]int32, len(nodes)),
		rootAt:   make([]int32, 0, len(roots)+1),
		path:     paths,
	}

	// Iterative DFS flatten: assign final indices, record depth and
	// subtree extents, then fill subMin bottom-up over the DFS layout
	// (children always follow their parent, so a reverse sweep sees every
	// child before its parent).
	remap := make([]int32, len(nodes))
	var next int32
	type frame struct {
		node  int32
		depth int32
	}
	stack := make([]frame, 0, 64)
	for _, r := range roots {
		tr.rootAt = append(tr.rootAt, next)
		stack = append(stack, frame{r, 0})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bn := &nodes[f.node]
			id := next
			next++
			remap[f.node] = id
			t := int(bn.t)
			tr.typ[id] = bn.t
			tr.cost[id] = in.G.Types[t].Cost
			tr.capn[id] = math.Floor(b[t] / tr.cost[id])
			tr.bthr[id] = b[t]
			tr.depth[id] = f.depth
			if int(f.depth)+1 > tr.maxDepth {
				tr.maxDepth = int(f.depth) + 1
			}
			// Push children in reverse so they pop in first-appearance
			// order, keeping the DFS layout stable.
			for i := len(bn.children) - 1; i >= 0; i-- {
				stack = append(stack, frame{bn.children[i], f.depth + 1})
			}
		}
	}
	// skip: a node's subtree ends where the next node at the same-or-
	// shallower depth begins. Sweep backwards maintaining the most recent
	// start index per depth.
	last := make([]int32, tr.maxDepth+1)
	for d := range last {
		last[d] = int32(len(nodes))
	}
	for id := int32(len(nodes)) - 1; id >= 0; id-- {
		d := tr.depth[id]
		tr.skip[id] = last[d]
		last[d] = id
		for dd := int(d) + 1; dd <= tr.maxDepth; dd++ {
			last[dd] = id
		}
	}
	// subMin/childMin bottom-up.
	for id := int32(len(nodes)) - 1; id >= 0; id-- {
		cm := math.Inf(1)
		for c := id + 1; c < tr.skip[id]; c = tr.skip[c] {
			if tr.subMin[c] < cm {
				cm = tr.subMin[c]
			}
		}
		tr.childMin[id] = cm
		m := tr.cost[id]
		if cm < m {
			m = cm
		}
		tr.subMin[id] = m
	}
	for id := range tr.spCol {
		tr.spCol[id] = in.spentColumn(int(tr.typ[id]), tr.bthr[id])
	}
	for k := range paths {
		for i, id := range paths[k] {
			paths[k][i] = remap[id]
		}
	}
	tr.rootAt = append(tr.rootAt, next)
	return tr
}

// palCompute evaluates the orderings against the realization matrix and
// returns one freshly allocated pal vector per ordering, sharing prefix
// work across the batch through a trie. Results are bitwise-identical to
// palComputeReference (trie_test.go) at every worker count: work units are
// (chunk × root-subtree) cells writing disjoint node spans of their
// chunk's scratch, and node partials merge in chunk-index order exactly
// like the per-ordering kernel's chunk partials did.
func (in *Instance) palCompute(os []Ordering, b Thresholds) [][]float64 {
	nT := len(in.G.Types)
	nChunks := in.numChunks()
	tr := in.buildPalTrie(os, b)
	nNodes := len(tr.typ)
	nRoots := len(tr.rootAt) - 1

	pbacking := make([]float64, nChunks*nNodes)
	partials := make([][]float64, nChunks)
	for c := range partials {
		partials[c] = pbacking[c*nNodes : (c+1)*nNodes : (c+1)*nNodes]
	}
	in.palRun(nChunks*nRoots, len(in.ws)*len(os), tr.maxDepth, func(u int, sc *trieScratch) {
		palFault()
		c, r := u/nRoots, u%nRoots
		lo, hi := in.chunkSpan(c)
		in.palTrieChunk(tr, lo, hi, tr.rootAt[r], tr.rootAt[r+1], partials[c], sc)
	})

	// Deterministic merge: chunk-index order per node, every worker
	// count, then scatter node sums back to each ordering's pal row.
	merged := make([]float64, nNodes)
	for c := 0; c < nChunks; c++ {
		for i, v := range partials[c] {
			merged[i] += v
		}
	}
	backing := make([]float64, len(os)*nT)
	out := make([][]float64, len(os))
	for k, o := range os {
		row := backing[k*nT : (k+1)*nT : (k+1)*nT]
		for i := range o {
			row[o[i]] = merged[tr.path[k][i]]
		}
		out[k] = row
	}
	return out
}

// spColCache memoizes budget-consumption columns min(z_t·C_t, b_t) per
// (type, threshold bits). Thresholds recur heavily across trie walks —
// one solve holds them fixed, a brute-force sweep revisits each
// coordinate value thousands of times — so the column is computed once
// and shared read-only by every node of that (type, threshold). The
// cache is cleared wholesale past a size cap; entries are derived data,
// so eviction costs recompute time only.
type spColCache struct {
	mu sync.Mutex
	m  map[spColKey][]float64
}

type spColKey struct {
	t    int32
	bits uint64
}

const spColCacheMax = 4096

// spentColumn returns the cached min(z_t·C_t, b_t) column for (t, bt).
func (in *Instance) spentColumn(t int, bt float64) []float64 {
	key := spColKey{t: int32(t), bits: math.Float64bits(bt)}
	c := &in.spCols
	c.mu.Lock()
	defer c.mu.Unlock()
	if col, ok := c.m[key]; ok {
		return col
	}
	if c.m == nil {
		c.m = make(map[spColKey][]float64)
	} else if len(c.m) >= spColCacheMax {
		c.m = make(map[spColKey][]float64)
	}
	nT := in.nT
	ct := in.G.Types[t].Cost
	col := make([]float64, len(in.ws))
	for zi := range col {
		sp := in.zs[zi*nT+t] * ct
		if bt < sp {
			sp = bt
		}
		col[zi] = sp
	}
	c.m[key] = col
	return col
}

// trieScratch is one worker's walk state: per-depth spent checkpoints
// and live-row index lists over a chunk's rows, and the grid sweep's
// per-depth path of types and contributions.
type trieScratch struct {
	spent    []float64 // [depth][row], flat depth × palChunkRows
	live     [][]int32 // per-depth surviving row indices (chunk-relative)
	typStack []int32   // grid sweep: type at each depth of the current path
	contrib  []float64 // grid sweep: contribution at each depth of the path
}

// allRows (every chunk row, in order) and zeroSpent are the read-only
// state every root starts from: all rows live, nothing spent.
var (
	allRows = func() []int32 {
		rows := make([]int32, palChunkRows)
		for r := range rows {
			rows[r] = int32(r)
		}
		return rows
	}()
	zeroSpent = make([]float64, palChunkRows)
)

// getTrieScratch pulls a pooled scratch, growing it only when a deeper
// walk than any previous one needs more depths. No zeroing on reuse:
// the walk never reads a scratch cell it has not written on the current
// live path (depth-d checkpoints are consumed only through the depth-d
// live list, which is rebuilt per subtree).
func (in *Instance) getTrieScratch(maxDepth int) *trieScratch {
	sc, _ := in.scratch.Get().(*trieScratch)
	if sc == nil {
		sc = new(trieScratch)
	}
	if len(sc.live) < maxDepth {
		sc.spent = make([]float64, maxDepth*palChunkRows)
		for len(sc.live) < maxDepth {
			sc.live = append(sc.live, make([]int32, 0, palChunkRows))
		}
		sc.typStack = make([]int32, maxDepth)
		sc.contrib = make([]float64, maxDepth)
	}
	return sc
}

// at returns the spent checkpoints and live rows a depth-d node starts
// from over an n-row chunk: the depth-(d−1) state, or the root state.
func (sc *trieScratch) at(d, n int) ([]float64, []int32) {
	if d == 0 {
		return zeroSpent[:n], allRows[:n]
	}
	return sc.spent[(d-1)*palChunkRows : (d-1)*palChunkRows+n], sc.live[d-1]
}

// palTrieChunk accumulates realization rows [lo, hi) over the trie
// subtree [s, e) into acc (one scalar per node). The walk is
// node-outer/row-inner: each node is one palLeaf or palFold step over
// the rows still live at its parent's depth. A row whose post-fold
// remainder drops below the cheapest descendant cost (childMin) leaves
// the list, which is exactly the rem < subMin subtree skip of the
// per-ordering kernel — it only ever drops zero-contribution positions,
// and a row kept past a child whose own subMin exceeds the remainder
// contributes the same exact zero through the n_t > 0 guard, so sums
// are bitwise unchanged (see the contract above).
func (in *Instance) palTrieChunk(tr *palTrie, lo, hi int, s, e int32, acc []float64, sc *trieScratch) {
	n := hi - lo
	for i := s; i < e; {
		d := int(tr.depth[i])
		spent, live := sc.at(d, n)
		if len(live) == 0 {
			i = tr.skip[i] // no live row can afford any audit in this subtree
			continue
		}
		t := int(tr.typ[i])
		if tr.skip[i] == i+1 {
			acc[i] += in.palLeaf(t, lo, hi, tr.capn[i], spent, live)
		} else {
			acc[i] += in.palFold(sc, d, t, lo, hi, tr.capn[i], tr.childMin[i], tr.spCol[i])
		}
		i++
	}
}
