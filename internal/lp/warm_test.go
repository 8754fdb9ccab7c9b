package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomDenseLP builds the LP of a random zero-sum matrix game — the
// exact shape of the column-generation restricted master: maximize v
// subject to v − Σ_k a_{sk}·p_k ≤ 0 for every scenario s, Σ_k p_k = 1,
// p ≥ 0, v free. In standard form that is min −v⁺ + v⁻ over columns
// v⁺, v⁻, p_1..p_k and one slack per scenario row. Phase 1 is a single
// pivot (only the probability row needs an artificial) and phase 2 does
// the real work, which is where warm starts matter.
func randomDenseLP(t *testing.T, rng *rand.Rand, nStrats, nRows int, perturb float64) *Standard {
	t.Helper()
	m, n := nRows+1, 2+nStrats+nRows
	p := &Standard{M: m, N: n, A: make([]float64, m*n), B: make([]float64, m), C: make([]float64, n), Crash: make([]int, m)}
	p.C[0], p.C[1] = -1, 1
	for r := 0; r < nRows; r++ {
		row := p.A[r*n : (r+1)*n]
		row[0], row[1] = 1, -1
		for k := 0; k < nStrats; k++ {
			row[2+k] = -(rng.Float64() + perturb*rng.NormFloat64())
		}
		row[2+nStrats+r] = 1
		p.Crash[r] = 2 + nStrats + r
	}
	for k := 0; k < nStrats; k++ {
		p.A[nRows*n+2+k] = 1
	}
	p.B[nRows] = 1
	p.Crash[nRows] = -1
	return p
}

func TestWarmSameProblemMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomDenseLP(t, rng, 20, 12, 0)
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	if len(cold.Basis) != p.M {
		t.Fatalf("cold basis missing or wrong size: %+v", cold.Basis)
	}

	// Rebuild the identical problem and warm start from the cold basis.
	rng = rand.New(rand.NewSource(7))
	q := randomDenseLP(t, rng, 20, 12, 0)
	warm, err := q.Solve(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("warm objective %.12f != cold %.12f (|Δ|=%g)", warm.Objective, cold.Objective, d)
	}
	for i := range warm.X {
		if d := math.Abs(warm.X[i] - cold.X[i]); d > 1e-8 {
			t.Fatalf("x[%d]: warm %.12f != cold %.12f", i, warm.X[i], cold.X[i])
		}
	}
}

func TestWarmPerturbedProblemMatchesColdAndSavesPivots(t *testing.T) {
	const trials = 5
	savedSomewhere := false
	for trial := 0; trial < trials; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		base := randomDenseLP(t, rng, 30, 20, 0)
		sol0, err := base.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol0.Status != Optimal {
			t.Fatalf("base status = %v", sol0.Status)
		}

		// Perturbed instance: same structure, slightly moved coefficients
		// — the shape of a refit master.
		mk := func() *Standard {
			r := rand.New(rand.NewSource(seed))
			return randomDenseLP(t, r, 30, 20, 0.01)
		}
		cold, err := mk().Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := mk().Solve(Options{Warm: sol0.Basis})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal || warm.Status != Optimal {
			t.Fatalf("statuses: cold %v warm %v", cold.Status, warm.Status)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-8 {
			t.Fatalf("trial %d: warm objective %.12f != cold %.12f", trial, warm.Objective, cold.Objective)
		}
		if warm.Iterations < cold.Iterations {
			savedSomewhere = true
		}
	}
	if !savedSomewhere {
		t.Fatalf("warm start never beat cold pivot count across %d perturbed trials", trials)
	}
}

func TestWarmIgnoresIncompatibleBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomDenseLP(t, rng, 10, 6, 0)
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Garbage columns — out of range, artificials, repeats, and a short
	// list — are skipped; the solve stays optimal at the same value.
	for name, warm := range map[string][]int{
		"short":        {0, 1, 2},
		"out of range": {999, -1, -7},
		"artificials":  {p.N, p.N + 1, p.N + p.M - 1},
		"repeats":      {2, 2, 2, 3, 3, 0, 0},
	} {
		rng = rand.New(rand.NewSource(9))
		q := randomDenseLP(t, rng, 10, 6, 0)
		sol, err := q.Solve(Options{Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("%s warm basis changed the answer: %v obj %.12f vs %.12f", name, sol.Status, sol.Objective, cold.Objective)
		}
	}
}

func TestWarmWithAddedVariables(t *testing.T) {
	// Column generation shape: solve, add columns, warm start the grown
	// problem with the old basis. min x + 2y + ½Σz s.t. x + y + 1.5Σz ≥ 4,
	// x ≤ 3; columns x, y, z_1..z_extra, the surplus, the slack.
	build := func(extra int) *Standard {
		n := 4 + extra
		p := &Standard{M: 2, N: n, A: make([]float64, 2*n), B: []float64{4, 3}, C: make([]float64, n), Crash: []int{-1, n - 1}}
		p.C[0], p.C[1] = 1, 2
		p.A[0], p.A[1], p.A[n-2] = 1, 1, -1
		p.A[n], p.A[2*n-1] = 1, 1
		for i := 0; i < extra; i++ {
			p.C[2+i] = 0.5
			p.A[2+i] = 1.5
		}
		return p
	}
	small, err := build(0).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Status != Optimal {
		t.Fatalf("small status = %v", small.Status)
	}
	// The new columns sit before the slacks, which shift by their
	// count; artificials (≥ N) do not carry over.
	const extra = 3
	var warm []int
	for _, j := range small.Basis {
		switch {
		case j < 2:
			warm = append(warm, j)
		case j < 4:
			warm = append(warm, j+extra)
		}
	}
	grownCold, err := build(extra).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	grownWarm, err := build(extra).Solve(Options{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if grownWarm.Status != Optimal {
		t.Fatalf("grown warm status = %v", grownWarm.Status)
	}
	if d := math.Abs(grownWarm.Objective - grownCold.Objective); d > 1e-9 {
		t.Fatalf("grown warm objective %.12f != cold %.12f", grownWarm.Objective, grownCold.Objective)
	}
}

func TestWarmBasisRoundTripsDuals(t *testing.T) {
	// Warm solves must leave duals intact — column generation prices
	// off them.
	rng := rand.New(rand.NewSource(21))
	p := randomDenseLP(t, rng, 15, 10, 0)
	cold, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(21))
	q := randomDenseLP(t, rng, 15, 10, 0)
	warm, err := q.Solve(Options{Warm: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Dual) != len(cold.Dual) {
		t.Fatalf("dual lengths differ")
	}
	for i := range warm.Dual {
		if d := math.Abs(warm.Dual[i] - cold.Dual[i]); d > 1e-7 {
			t.Fatalf("dual[%d]: warm %.12f vs cold %.12f", i, warm.Dual[i], cold.Dual[i])
		}
	}
}
