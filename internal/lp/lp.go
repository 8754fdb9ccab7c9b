// Package lp implements a dense two-phase primal simplex solver over a
// linear program in computational standard form. It exists because the
// audit-game pipeline (column generation in particular) needs exact
// primal and dual solutions and the Go standard library ships no
// optimization code.
//
// The caller writes the standard form directly — one dense row-major
// constraint matrix with non-negative right-hand sides, slack and
// surplus columns included — and names, per row, the column that starts
// basic there. The solver reports column values, one dual per row, and
// the final basis as column indices, which the caller translates into
// its own coordinates. It targets the problem sizes that arise in the
// paper — hundreds of rows and columns — where a dense tableau is both
// simple and fast. Anti-cycling is handled by switching from Dantzig to
// Bland's rule after a stall.
package lp

import (
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no feasible point exists.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
	// IterationLimit means the solver hit MaxIter before converging.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// eps is the feasibility/optimality tolerance.
const eps = 1e-9

// sqrtEps is the looser tolerance for the phase-1 feasibility test and
// the purge of zero-level artificials.
var sqrtEps = math.Sqrt(eps)

// Standard is a linear program in computational standard form:
//
//	minimize cᵀx  subject to  Ax = b,  x ≥ 0,  b ≥ 0
type Standard struct {
	// M and N are the row and column counts.
	M, N int
	// A is the M×N constraint matrix, row-major: A[i*N+j].
	A []float64
	// B is the right-hand side, one non-negative entry per row.
	B []float64
	// C is the objective, one entry per column.
	C []float64
	// Crash names, per row, the column basic there in the starting
	// basis, or -1 for the row's artificial. A crash column must be a
	// unit column: +1 in its row and 0 in every other row (a ≤ row's
	// slack), so the starting basis matrix is the identity.
	Crash []int
}

// Options tunes the solver.
type Options struct {
	// MaxIter caps simplex pivots per phase. Zero means a generous
	// default derived from the problem size.
	MaxIter int
	// Bland forces Bland's rule from the first pivot (used by the
	// pivot-rule ablation; normally the solver starts with Dantzig and
	// falls back on stall).
	Bland bool
	// Warm is an advisory starting basis: columns to pivot into the
	// basis, in order, typically the Basis of an earlier Solution of a
	// structurally compatible problem (same rows, the same or more
	// columns, perturbed coefficients). The solver installs them before
	// phase 1, so a stale or partially invalid basis can only cost
	// pivots, never correctness: columns that are out of range or admit
	// no acceptable pivot element are skipped, and an install that
	// leaves the tableau irreparably infeasible restarts from the crash
	// basis.
	Warm []int
}

// Solution holds the result of solving a Standard problem.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the value of each column. Nil on non-optimal statuses.
	X []float64
	// Dual holds the shadow price of each row: the derivative of the
	// optimal objective with respect to that row's right-hand side.
	Dual []float64
	// Basis[i] is the column basic in row i at the optimum; a value ≥ N
	// marks the row's artificial (a linearly dependent row). Nil on
	// non-optimal statuses.
	Basis []int
	// Iterations is the total number of simplex pivots across both
	// phases (including warm-start install and repair pivots).
	Iterations int
}

// Solve runs the two-phase simplex method and returns the solution.
// The returned error is non-nil only for malformed input; infeasibility
// and unboundedness are reported through Solution.Status.
func (p *Standard) Solve(o Options) (*Solution, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200 * (p.M + p.N + 10)
	}
	return newTableau(p).solve(o), nil
}

// check rejects malformed input.
func (p *Standard) check() error {
	if p.M < 0 || p.N < 0 {
		return fmt.Errorf("lp: negative shape %d×%d", p.M, p.N)
	}
	if len(p.A) != p.M*p.N || len(p.B) != p.M || len(p.C) != p.N || len(p.Crash) != p.M {
		return fmt.Errorf("lp: %d×%d problem with len(A)=%d, len(B)=%d, len(C)=%d, len(Crash)=%d",
			p.M, p.N, len(p.A), len(p.B), len(p.C), len(p.Crash))
	}
	for i, b := range p.B {
		if !(b >= 0) {
			return fmt.Errorf("lp: row %d has right-hand side %v, want ≥ 0", i, b)
		}
	}
	for i, j := range p.Crash {
		if j < -1 || j >= p.N {
			return fmt.Errorf("lp: row %d crash column %d out of range [-1, %d)", i, j, p.N)
		}
	}
	return nil
}
