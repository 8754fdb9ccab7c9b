package lp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func solveOrFatal(t *testing.T, p *Standard) *Solution {
	t.Helper()
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("Solve status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// std assembles a standard-form problem from dense rows.
func std(c []float64, rows [][]float64, b []float64, crash []int) *Standard {
	p := &Standard{M: len(rows), N: len(c), B: b, C: c, Crash: crash}
	for _, r := range rows {
		p.A = append(p.A, r...)
	}
	return p
}

// leq writes min cᵀx s.t. Ax ≤ b, x ≥ 0 in standard form: columns x,
// then one slack per row, each row starting on its slack. A row with
// b < 0 is negated, so its slack enters at −1 and the row starts on its
// artificial instead.
func leq(c []float64, A [][]float64, b []float64) *Standard {
	n, m := len(c), len(A)
	w := n + m
	p := &Standard{M: m, N: w, A: make([]float64, m*w), B: make([]float64, m), C: make([]float64, w), Crash: make([]int, m)}
	copy(p.C, c)
	for i := range A {
		row := p.A[i*w : (i+1)*w]
		copy(row, A[i])
		row[n+i] = 1
		p.B[i] = b[i]
		p.Crash[i] = n + i
		if b[i] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			p.B[i] = -b[i]
			p.Crash[i] = -1
		}
	}
	return p
}

// Classic production problem:
//
//	max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//
// written as min −3x − 5y. Optimum (2,6) with objective −36; duals
// (0, −1.5, −1) — the maximization's (0, 1.5, 1), negated.
func TestMaximizeKnownOptimum(t *testing.T) {
	p := leq([]float64{-3, -5}, [][]float64{{1, 0}, {0, 2}, {3, 2}}, []float64{4, 12, 18})
	sol := solveOrFatal(t, p)
	approx(t, "objective", sol.Objective, -36, 1e-8)
	approx(t, "x", sol.X[0], 2, 1e-8)
	approx(t, "y", sol.X[1], 6, 1e-8)
	approx(t, "dual c1", sol.Dual[0], 0, 1e-8)
	approx(t, "dual c2", sol.Dual[1], -1.5, 1e-8)
	approx(t, "dual c3", sol.Dual[2], -1, 1e-8)
}

// min x + y s.t. x + y − s = 2, x − y = 0 → x = y = 1.
func TestMinimizeWithGEandEQ(t *testing.T) {
	p := std([]float64{1, 1, 0},
		[][]float64{{1, 1, -1}, {1, -1, 0}},
		[]float64{2, 0}, []int{-1, -1})
	sol := solveOrFatal(t, p)
	approx(t, "objective", sol.Objective, 2, 1e-8)
	approx(t, "x", sol.X[0], 1, 1e-8)
	approx(t, "y", sol.X[1], 1, 1e-8)
}

func TestFreeVariable(t *testing.T) {
	// min u s.t. u ≥ 3 − x, u ≥ x − 1, x = 0 → u = 3 at x = 0, with the
	// free u split as u⁺ − u⁻. Columns u⁺, u⁻, x, s1, s2; the second row
	// is negated to −u + x ≤ 1 so its rhs is non-negative.
	p := std([]float64{1, -1, 0, 0, 0},
		[][]float64{
			{1, -1, 1, -1, 0},
			{-1, 1, 1, 0, 1},
			{0, 0, 1, 0, 0},
		},
		[]float64{3, 1, 0}, []int{-1, 4, -1})
	sol := solveOrFatal(t, p)
	approx(t, "u", sol.X[0]-sol.X[1], 3, 1e-8)
}

func TestFreeVariableNegativeOptimum(t *testing.T) {
	// min u s.t. u ≥ −5, written −u⁺ + u⁻ + s = 5 → u = −5.
	p := std([]float64{1, -1, 0}, [][]float64{{-1, 1, 1}}, []float64{5}, []int{2})
	sol := solveOrFatal(t, p)
	approx(t, "u", sol.X[0]-sol.X[1], -5, 1e-8)
	approx(t, "objective", sol.Objective, -5, 1e-8)
}

func TestInfeasible(t *testing.T) {
	// x ≥ 5 and x ≤ 3.
	p := std([]float64{1, 0, 0},
		[][]float64{{1, -1, 0}, {1, 0, 1}},
		[]float64{5, 3}, []int{-1, 2})
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min −x s.t. x ≥ 0.
	p := std([]float64{-1, 0}, [][]float64{{1, -1}}, []float64{0}, []int{-1})
	sol, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveRejectsMalformedInput(t *testing.T) {
	ok := func() *Standard {
		return std([]float64{1, 0}, [][]float64{{1, 1}}, []float64{1}, []int{1})
	}
	if _, err := ok().Solve(Options{}); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(*Standard)
		want   string
	}{
		"short A":        {func(p *Standard) { p.A = p.A[:1] }, "len(A)"},
		"short C":        {func(p *Standard) { p.C = p.C[:1] }, "len(C)"},
		"long B":         {func(p *Standard) { p.B = append(p.B, 1) }, "len(B)"},
		"short Crash":    {func(p *Standard) { p.Crash = nil }, "len(Crash)"},
		"negative shape": {func(p *Standard) { p.M = -1 }, "negative shape"},
		"negative b":     {func(p *Standard) { p.B[0] = -1 }, "right-hand side"},
		"NaN b":          {func(p *Standard) { p.B[0] = math.NaN() }, "right-hand side"},
		"crash too high": {func(p *Standard) { p.Crash[0] = 2 }, "crash column"},
		"crash too low":  {func(p *Standard) { p.Crash[0] = -2 }, "crash column"},
	} {
		p := ok()
		tc.mutate(p)
		_, err := p.Solve(Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, tc.want)
		}
	}
}

func TestDegenerateProblemTerminates(t *testing.T) {
	// A classically degenerate LP (Beale's example structure) should
	// still terminate thanks to the Bland fallback.
	p := leq([]float64{-0.75, 150, -0.02, 6},
		[][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		[]float64{0, 0, 1})
	sol := solveOrFatal(t, p)
	approx(t, "objective", sol.Objective, -0.05, 1e-8)
}

func TestBlandOptionMatchesDantzig(t *testing.T) {
	// max 2x + 3y + z as min −2x − 3y − z.
	build := func() *Standard {
		return leq([]float64{-2, -3, -1},
			[][]float64{{1, 1, 1}, {2, 1, 0}, {0, 1, 3}},
			[]float64{10, 8, 9})
	}
	s1, err := build().Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := build().Solve(Options{Bland: true})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Status != Optimal || s2.Status != Optimal {
		t.Fatalf("statuses: %v / %v", s1.Status, s2.Status)
	}
	approx(t, "objective parity", s1.Objective, s2.Objective, 1e-8)
}

func TestRedundantConstraintHandled(t *testing.T) {
	// Duplicate rows create linearly dependent equalities after phase 1.
	p := std([]float64{1, 2},
		[][]float64{{1, 1}, {2, 2}},
		[]float64{4, 8}, []int{-1, -1})
	sol := solveOrFatal(t, p)
	approx(t, "objective", sol.Objective, 4, 1e-8)
	approx(t, "x", sol.X[0], 4, 1e-8)
}

func TestDualsShadowPriceNumerically(t *testing.T) {
	// Verify Dual[i] ≈ dObjective/dB[i] by finite differences on a
	// non-degenerate LP: max 5x + 4y as min −5x − 4y.
	build := func(b1, b2 float64) *Standard {
		return leq([]float64{-5, -4}, [][]float64{{6, 4}, {1, 2}}, []float64{b1, b2})
	}
	obj := func(b1, b2 float64) float64 {
		sol, err := build(b1, b2).Solve(Options{})
		if err != nil || sol.Status != Optimal {
			return math.NaN()
		}
		return sol.Objective
	}
	sol := solveOrFatal(t, build(24, 6))

	const h = 1e-4
	d1 := (obj(24+h, 6) - obj(24-h, 6)) / (2 * h)
	d2 := (obj(24, 6+h) - obj(24, 6-h)) / (2 * h)
	approx(t, "dual m1", sol.Dual[0], d1, 1e-5)
	approx(t, "dual m2", sol.Dual[1], d2, 1e-5)
}

// Property-style randomized check: generate random LPs that are feasible
// by construction (we plant a feasible point) and verify
//  1. the solver never reports infeasible,
//  2. the reported solution satisfies every constraint,
//  3. the reported objective matches cᵀx,
//  4. the duals are dual feasible (every reduced cost c_j − A_jᵀy is
//     non-negative) and bᵀy equals the objective, so by weak duality
//     the planted point cannot beat it.
func TestRandomFeasibleLPsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		cvec := make([]float64, n)
		for j := range cvec {
			cvec[j] = float64(rng.Intn(11) - 5)
		}
		// Planted feasible point.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = float64(rng.Intn(4))
		}
		rows := make([][]float64, 0, m+1)
		rhs := make([]float64, 0, m+1)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			var lhs float64
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
				lhs += row[j] * x0[j]
			}
			// Make the row satisfied at x0 with slack.
			rows = append(rows, row)
			rhs = append(rhs, lhs+float64(rng.Intn(3)))
		}
		// Boundedness: Σx ≤ 50 caps the minimum even with negative costs.
		rows = append(rows, ones(n))
		rhs = append(rhs, 50)
		p := leq(cvec, rows, rhs)

		sol, err := p.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, but x0 is feasible and the cap bounds the LP", trial, sol.Status)
		}
		var obj float64
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-7 {
				t.Fatalf("trial %d: negative primal x[%d]=%v", trial, j, sol.X[j])
			}
			obj += cvec[j] * sol.X[j]
		}
		for i, row := range rows {
			var lhs float64
			for j := range row {
				lhs += row[j] * sol.X[j]
			}
			if lhs > rhs[i]+1e-6 {
				t.Fatalf("trial %d: row %d violated: %v > %v", trial, i, lhs, rhs[i])
			}
		}
		if math.Abs(obj-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch: %v vs %v", trial, obj, sol.Objective)
		}
		var by float64
		for i := 0; i < p.M; i++ {
			by += p.B[i] * sol.Dual[i]
		}
		for j := 0; j < p.N; j++ {
			rc := p.C[j]
			for i := 0; i < p.M; i++ {
				rc -= p.A[i*p.N+j] * sol.Dual[i]
			}
			if rc < -1e-6 {
				t.Fatalf("trial %d: column %d has reduced cost %v under the duals", trial, j, rc)
			}
		}
		if math.Abs(by-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: dual objective %v != primal %v", trial, by, sol.Objective)
		}
		var plantedObj float64
		for j := 0; j < n; j++ {
			plantedObj += cvec[j] * x0[j]
		}
		if by > plantedObj+1e-6 {
			t.Fatalf("trial %d: dual bound %v above feasible point %v", trial, by, plantedObj)
		}
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// Zero-sum game LP: the value of matching pennies is 0 with uniform mixed
// strategies. This mirrors how the game package writes its master.
func TestMatchingPenniesGameValue(t *testing.T) {
	// Row player minimizes u s.t. u ≥ payoff of each column under mix p.
	// Payoff matrix (row's loss): [[1,-1],[-1,1]]. Columns u⁺, u⁻, p1,
	// p2, then the two surpluses.
	p := std([]float64{1, -1, 0, 0, 0, 0},
		[][]float64{
			{1, -1, -1, 1, -1, 0}, // u − p1 + p2 ≥ 0
			{1, -1, 1, -1, 0, -1}, // u + p1 − p2 ≥ 0
			{0, 0, 1, 1, 0, 0},    // p1 + p2 = 1
		},
		[]float64{0, 0, 1}, []int{-1, -1, -1})
	sol := solveOrFatal(t, p)
	approx(t, "game value", sol.Objective, 0, 1e-8)
	approx(t, "p1", sol.X[2], 0.5, 1e-8)
	approx(t, "p2", sol.X[3], 0.5, 1e-8)
}

// The paper's Eq. 5 writes 0 ≤ p_o ≤ 1 explicitly; written as rows
// p_o + s_o = 1 the bounds must not change the game value, since
// Σ p_o = 1 already forces them.
func TestExplicitProbabilityBoundsMatchImplicit(t *testing.T) {
	// Matching pennies over columns u⁺, u⁻, p1, p2, the two surpluses,
	// then (explicit only) the two bound slacks.
	solve := func(explicit bool) float64 {
		rows := [][]float64{
			{1, -1, -1, 1, -1, 0},
			{1, -1, 1, -1, 0, -1},
			{0, 0, 1, 1, 0, 0},
		}
		c := []float64{1, -1, 0, 0, 0, 0}
		b := []float64{0, 0, 1}
		crash := []int{-1, -1, -1}
		if explicit {
			for i := range rows {
				rows[i] = append(rows[i], 0, 0)
			}
			rows = append(rows, []float64{0, 0, 1, 0, 0, 0, 1, 0}, []float64{0, 0, 0, 1, 0, 0, 0, 1})
			c = append(c, 0, 0)
			b = append(b, 1, 1)
			crash = append(crash, 6, 7)
		}
		return solveOrFatal(t, std(c, rows, b, crash)).Objective
	}
	approx(t, "explicit vs implicit", solve(true), solve(false), 1e-8)
}

func TestIterationLimitStatus(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 needs more than one
	// pivot.
	p := leq([]float64{-3, -5}, [][]float64{{1, 0}, {0, 2}, {3, 2}}, []float64{4, 12, 18})
	sol, err := p.Solve(Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Skip("solved within one pivot; nothing to assert")
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
}
