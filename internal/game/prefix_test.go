package game

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"auditgame/internal/sample"
)

// TestPrefixPricerMatchesKernel pins the incremental pricer against the
// batched kernel bit for bit: at every prefix length, every candidate's
// ExtendDeltas value must equal the appended-position pal entry the
// kernel computes for the extended ordering, and the pricer's prefix pal
// must equal the kernel's pal of the prefix.
func TestPrefixPricerMatchesKernel(t *testing.T) {
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
		rng := rand.New(rand.NewSource(tc.seed * 131))
		b := make(Thresholds, tc.nT)
		for i := range b {
			b[i] = float64(rng.Intn(10))
		}
		walk := Ordering(rng.Perm(tc.nT))
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			in.Workers = w
			pp, err := NewPrefixPricer(in, b)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < tc.nT; step++ {
				prefix := walk[:step]
				// Prefix pal: checkpointed entries vs a full kernel walk.
				want := in.PalBatch([]Ordering{prefix.Clone()}, b)[0]
				for ty := 0; ty < tc.nT; ty++ {
					if math.Float64bits(pp.Pal()[ty]) != math.Float64bits(want[ty]) {
						t.Fatalf("nT=%d workers=%d step=%d: prefix pal[%d] = %v (pricer) vs %v (kernel)",
							tc.nT, w, step, ty, pp.Pal()[ty], want[ty])
					}
				}
				// Candidate deltas: one appended-position evaluation each vs
				// the kernel's full walk of prefix+t.
				inPrefix := make([]bool, tc.nT)
				for _, ty := range prefix {
					inPrefix[ty] = true
				}
				var cands []int
				var ext []Ordering
				for ty := 0; ty < tc.nT; ty++ {
					if !inPrefix[ty] {
						cands = append(cands, ty)
						ext = append(ext, append(prefix.Clone(), ty))
					}
				}
				deltas := pp.ExtendDeltas(cands)
				pals := in.PalBatch(ext, b)
				for j, ty := range cands {
					if math.Float64bits(deltas[j]) != math.Float64bits(pals[j][ty]) {
						t.Fatalf("nT=%d workers=%d step=%d cand=%d: delta %v (pricer) vs %v (kernel), prefix %v",
							tc.nT, w, step, ty, deltas[j], pals[j][ty], prefix)
					}
				}
				pp.Advance(walk[step], deltas[indexOf(cands, walk[step])])
			}
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
