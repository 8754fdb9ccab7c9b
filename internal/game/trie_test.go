package game

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/sample"
)

// trieTestGame builds a synthetic game with nT alert types of varying
// audit costs — wide enough to exercise deep tries, non-unit-cost floor
// paths, and multi-chunk banks.
func trieTestGame(nT int, seed int64) *Game {
	rng := rand.New(rand.NewSource(seed))
	g := &Game{}
	for t := 0; t < nT; t++ {
		g.Types = append(g.Types, AlertType{
			Name: "T",
			Cost: []float64{1, 1, 2, 3}[rng.Intn(4)],
			Dist: dist.NewGaussianHalfWidth(float64(rng.Intn(8)+2), 1.2, 2),
		})
	}
	g.Entities = []Entity{{Name: "e1", PAttack: 1}, {Name: "e2", PAttack: 0.5}}
	g.Victims = []string{"v1", "v2"}
	g.Attacks = make([][]Attack, len(g.Entities))
	for e := range g.Attacks {
		for v := range g.Victims {
			g.Attacks[e] = append(g.Attacks[e],
				DeterministicAttack(nT, (e+v)%nT, float64(rng.Intn(6)+1), 4, 0.4))
		}
	}
	return g
}

// TestPalTrieMatchesReference pins the trie-batched kernel against the
// per-ordering reference kernel, bit for bit, across random batches of
// full and partial orderings on games with non-unit costs and
// multi-chunk realization banks.
func TestPalTrieMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		nT, bank int
		seed     int64
	}{
		{4, 100, 1},
		{8, 600, 2},
		{12, 1500, 3}, // 2 chunks
		{16, 3000, 4}, // 3 chunks
	} {
		g := trieTestGame(tc.nT, tc.seed)
		src := sample.NewBank(g.Dists(), tc.bank, tc.seed)
		in, err := NewInstance(g, float64(tc.nT)*2.5, src)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed * 77))
		b := make(Thresholds, tc.nT)
		for i := range b {
			b[i] = float64(rng.Intn(10))
		}
		// Batch shape the solvers issue: shared prefixes plus strays.
		var os []Ordering
		perm := Ordering(rng.Perm(tc.nT))
		for l := 0; l <= tc.nT; l++ {
			os = append(os, perm[:l].Clone())
		}
		for i := 0; i < 8; i++ {
			p := Ordering(rng.Perm(tc.nT))
			os = append(os, p, p[:rng.Intn(tc.nT)+1].Clone())
		}
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			in.Workers = w
			got := in.palCompute(os, b)
			want := in.palComputeReference(os, b)
			for k := range os {
				for ty := 0; ty < tc.nT; ty++ {
					if math.Float64bits(got[k][ty]) != math.Float64bits(want[k][ty]) {
						t.Fatalf("nT=%d bank=%d workers=%d: pal(os[%d])[%d] = %v (trie) vs %v (reference), ordering %v",
							tc.nT, tc.bank, w, k, ty, got[k][ty], want[k][ty], os[k])
					}
				}
			}
		}
	}
}

// palComputeReference evaluates each ordering independently against the
// realization matrix — the pre-trie kernel, kept here as the reference
// implementation TestPalTrieMatchesReference pins palCompute (trie.go)
// against, bit for bit.
func (in *Instance) palComputeReference(os []Ordering, b Thresholds) [][]float64 {
	nT := len(in.G.Types)
	nRows := len(in.ws)
	nChunks := (nRows + palChunkRows - 1) / palChunkRows

	// Per-ordering constants hoisted out of the realization loop:
	// position costs, audit caps ⌊b_t/C_t⌋, position thresholds, and the
	// suffix-minimum cost that lets the kernel stop a row early once the
	// remaining budget can't buy any further audit.
	costs := make([][]float64, len(os))
	caps := make([][]float64, len(os))
	bpos := make([][]float64, len(os))
	sufMin := make([][]float64, len(os))
	for k, o := range os {
		costs[k] = make([]float64, len(o))
		caps[k] = make([]float64, len(o))
		bpos[k] = make([]float64, len(o))
		sufMin[k] = make([]float64, len(o))
		for i, t := range o {
			costs[k][i] = in.G.Types[t].Cost
			caps[k][i] = math.Floor(b[t] / costs[k][i])
			bpos[k][i] = b[t]
		}
		m := math.Inf(1)
		for i := len(o) - 1; i >= 0; i-- {
			if costs[k][i] < m {
				m = costs[k][i]
			}
			sufMin[k][i] = m
		}
	}

	// One serial pass per (chunk, ordering) cell, each writing its own
	// nT-wide span of the chunk's partials: the chunking and merge order
	// the trie kernel's determinism contract is stated against.
	partials := make([][]float64, nChunks)
	for c := range partials {
		partials[c] = make([]float64, len(os)*nT)
		lo := c * palChunkRows
		hi := min(lo+palChunkRows, nRows)
		for k, o := range os {
			in.palChunk(lo, hi, o, costs[k], caps[k], bpos[k], sufMin[k], partials[c][k*nT:(k+1)*nT])
		}
	}

	// Deterministic merge: chunk-index order.
	backing := make([]float64, len(os)*nT)
	out := make([][]float64, len(os))
	for k := range os {
		out[k] = backing[k*nT : (k+1)*nT : (k+1)*nT]
	}
	for c := 0; c < nChunks; c++ {
		for i, v := range partials[c] {
			backing[i] += v
		}
	}
	return out
}

// palChunk accumulates the contribution of realization rows [lo, hi) for
// one ordering into accRow (nT wide): the budget recursion of Eq. 1 walked
// position by position, with the row bailing out once the remaining
// budget is below the cheapest remaining audit cost.
func (in *Instance) palChunk(lo, hi int, o Ordering, ck, capk, bk, mink, accRow []float64) {
	nT := in.nT
	budget := in.Budget
	zs := in.zs
	ws := in.ws
	for zi := lo; zi < hi; zi++ {
		base := zi * nT
		row := zs[base : base+nT]
		w := ws[zi]
		spent := 0.0
		for i, t := range o {
			rem := budget - spent
			if rem < mink[i] {
				break // no remaining type can afford one audit
			}
			ct := ck[i]
			var avail float64
			if ct == 1 {
				avail = math.Floor(rem)
			} else {
				avail = math.Floor(rem / ct)
			}
			zt := row[t]
			ztEff := zt
			if ztEff < 1 {
				ztEff = 1
			}
			nt := avail
			if c := capk[i]; c < nt {
				nt = c
			}
			if ztEff < nt {
				nt = ztEff
			}
			if nt > 0 {
				accRow[t] += w * nt * (1 / ztEff)
			}
			s := zt * ct
			if bt := bk[i]; bt < s {
				s = bt
			}
			spent += s
		}
	}
}

// shiftedSource is src with one alert type's count raised by one in
// every realization: the world PalInjected evaluates, where the attack
// alert joins its bin.
type shiftedSource struct {
	src sample.Source
	t   int
}

func (s shiftedSource) Each(fn func(z sample.Realization, w float64)) {
	var buf sample.Realization
	s.src.Each(func(z sample.Realization, w float64) {
		buf = append(buf[:0], z...)
		buf[s.t]++
		fn(buf, w)
	})
}

func (s shiftedSource) Size() int { return s.src.Size() }

// TestPalInjectedMatchesShiftedKernel pins PalInjected to the shared
// kernel: an attack of type t that joins its bin is the kernel's Eq. 1
// on a source whose z_t is one higher in every row. Z′_t = z_t + 1 ≥ 1
// there, so the kernel's max(Z, 1) convention never engages, and the
// two differ only in rounding: PalInjected divides by z_t + 1 row by
// row where the kernel multiplies by its reciprocal and sums per chunk.
func TestPalInjectedMatchesShiftedKernel(t *testing.T) {
	var cases, bitEqual int
	worst := 0.0
	for _, tc := range []struct {
		nT, bank int
		seed     int64
	}{
		{4, 100, 1},
		{6, 600, 2},
		{8, 1500, 3}, // 2 chunks
	} {
		g := trieTestGame(tc.nT, tc.seed)
		src := sample.NewBank(g.Dists(), tc.bank, tc.seed)
		budget := float64(tc.nT) * 2.5
		in, err := NewInstance(g, budget, src)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed * 53))
		b := make(Thresholds, tc.nT)
		for i := range b {
			b[i] = float64(rng.Intn(10))
		}
		var os []Ordering
		for i := 0; i < 5; i++ {
			p := Ordering(rng.Perm(tc.nT))
			os = append(os, p, p[:rng.Intn(tc.nT)+1].Clone())
		}
		for ty := 0; ty < tc.nT; ty++ {
			shifted, err := NewInstance(g, budget, shiftedSource{src, ty})
			if err != nil {
				t.Fatal(err)
			}
			want := shifted.PalBatch(os, b)
			for k, o := range os {
				got := in.PalInjected(o, b, ty)
				cases++
				if math.Float64bits(got) == math.Float64bits(want[k][ty]) {
					bitEqual++
					continue
				}
				rel := math.Abs(got-want[k][ty]) / math.Max(math.Abs(got), math.Abs(want[k][ty]))
				worst = math.Max(worst, rel)
				if rel > 1e-12 {
					t.Fatalf("nT=%d type %d ordering %v: PalInjected = %v, kernel on the shifted source = %v (rel %.3g)",
						tc.nT, ty, o, got, want[k][ty], rel)
				}
			}
		}
	}
	t.Logf("%d cases, %d bit-equal, worst relative gap %.3g", cases, bitEqual, worst)
}
