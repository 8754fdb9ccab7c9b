package lp

import (
	"math"

	"auditgame/internal/fault"
)

// tableau is a full-tableau simplex working set. Columns are laid out as
// [structural 0..n) | artificial n..n+m). Artificial columns are kept
// through phase 2 (barred from entering the basis) because their reduced
// costs encode the duals: for artificial j of row i with zero cost,
// y_i = −c̄_j.
type tableau struct {
	p       *Standard // problem data, reloaded when a warm start is abandoned
	m, n    int       // rows, structural columns
	w       int       // row stride, n+m
	a       []float64 // m×w current tableau body, row-major
	b       []float64 // current rhs (basic variable values)
	cbar    []float64 // reduced costs, length w
	z       float64   // current objective value (of the phase objective)
	basis   []int     // basis[i] = column basic in row i
	inb     []bool    // inb[j] = column j is basic
	ties    []int     // scratch for the ratio test's tied rows
	blocked []bool    // columns numerically unusable at this basis
}

// newTableau builds the initial working set with the crash basis.
//
// Crash basis: a row whose crash column (a slack with a +1 coefficient)
// is given is feasible with that column basic (b ≥ 0), so only the
// remaining rows — equalities and ≥ rows — start on artificials. The
// basis matrix is still the identity, and the artificial columns are
// installed for every row regardless — the dual extraction reads them.
// Starting from slacks instead of a full artificial basis keeps phase 1
// to the handful of rows that genuinely need repair, which both speeds
// it up and avoids the long degenerate pivot chains on rhs-0 rows that
// let tableau round-off accumulate.
func newTableau(p *Standard) *tableau {
	m, n := p.M, p.N
	t := &tableau{
		p:     p,
		m:     m,
		n:     n,
		w:     n + m,
		a:     make([]float64, m*(n+m)),
		b:     append([]float64(nil), p.B...),
		basis: make([]int, m),
		inb:   make([]bool, n+m),
	}
	for i := 0; i < m; i++ {
		row := t.row(i)
		copy(row[:n], p.A[i*n:(i+1)*n])
		row[n+i] = 1 // artificial
		if j := p.Crash[i]; j >= 0 {
			t.basis[i] = j
			t.inb[j] = true
		} else {
			t.basis[i] = n + i
			t.inb[n+i] = true
		}
	}
	return t
}

// row returns a mutable view of tableau row i.
func (t *tableau) row(i int) []float64 { return t.a[i*t.w : (i+1)*t.w] }

// solve runs the two phases from the crash basis, after installing
// o.Warm when one is given.
func (t *tableau) solve(o Options) *Solution {
	n, m := t.n, t.m
	res := &Solution{}

	phase1 := make([]float64, n+m)
	for j := n; j < n+m; j++ {
		phase1[j] = 1
	}

	// Warm start: crash-install the supplied basis by direct pivots
	// (Gaussian elimination with best-magnitude row choice), then repair
	// any negative basic values the new data produced. Every step is a
	// legal basis change on a consistent tableau, so on success the
	// phases below run exactly as they would from the crash basis — just
	// from a vertex near the old optimum. If the warm basis turns out
	// singular or the repair fails, throw the tableau away and restart
	// from the cold crash basis: a warm start may only cost time, never
	// correctness.
	if len(o.Warm) > 0 {
		t.setObjective(phase1) // pivots maintain cbar/z; install under phase-1 costs
		it := t.warmInstall(o.Warm)
		rep, ok := t.warmRepair()
		if ok {
			res.Iterations += it + rep
		} else {
			*t = *newTableau(t.p)
		}
	}

	// Phase 1: minimize the sum of artificials.
	t.setObjective(phase1)
	st, it := t.iterate(o, true)
	res.Iterations += it
	if st == IterationLimit {
		res.Status = IterationLimit
		return res
	}
	// Test feasibility on the recomputed artificial mass, not the
	// incrementally updated t.z: after thousands of (mostly degenerate)
	// pivots on large column-generation masters, t.z carries accumulated
	// floating-point drift that can exceed the tolerance on a feasible
	// problem. The basic values themselves are the authoritative state.
	if t.artificialMass() > sqrtEps {
		res.Status = Infeasible
		return res
	}
	// Drive any artificials that linger in the basis at zero level out,
	// or drop their rows if the row is redundant.
	t.purgeArtificials()

	// Phase 2: minimize the true objective.
	phase2 := make([]float64, n+m)
	copy(phase2[:n], t.p.C)
	t.setObjective(phase2)
	st, it = t.iterate(o, false)
	res.Iterations += it
	switch st {
	case IterationLimit, Unbounded:
		res.Status = st
		return res
	}

	res.Status = Optimal
	res.X = make([]float64, n)
	for i, bj := range t.basis {
		if bj >= 0 && bj < n {
			res.X[bj] = t.b[i]
		}
	}
	// Report the objective recomputed from the basic values, not the
	// incrementally updated t.z — the same drift the phase-1 feasibility
	// test guards against (artificial phase-2 costs are zero, so basic
	// structural columns are the only contributors).
	for i, bj := range t.basis {
		if bj >= 0 && bj < n {
			res.Objective += phase2[bj] * t.b[i]
		}
	}
	// Duals from artificial reduced costs: c̄_{n+i} = c_{n+i} − y_i and
	// the phase-2 cost of artificials is 0, so y_i = −c̄_{n+i}.
	res.Dual = make([]float64, m)
	for i := 0; i < m; i++ {
		res.Dual[i] = -t.cbar[n+i]
	}
	res.Basis = append([]int(nil), t.basis...)
	return res
}

// warmInstallTol is the smallest tableau entry accepted as an
// installation pivot. Looser than pivotTol would risk amplifying the
// tableau by the reciprocal of a noise-level entry across the m install
// pivots; matching pivotTol keeps the warm crash no worse conditioned
// than a regular pivot sequence.
const warmInstallTol = pivotTol

// warmInstall pivots the supplied columns into the basis by direct
// Gaussian-elimination steps: each column enters on the unclaimed row
// where it has the largest-magnitude entry (partial pivoting), with no
// ratio test — primal feasibility is deliberately ignored here and
// restored by warmRepair afterwards. Rows already holding a target
// column are claimed up front so targets never evict each other.
// Columns that no longer exist, are already basic, or have no entry
// above warmInstallTol on any unclaimed row (a singular warm basis)
// are skipped. Returns the pivot count.
func (t *tableau) warmInstall(desired []int) int {
	claimed := make([]bool, t.m)
	want := make([]bool, t.w)
	for _, j := range desired {
		if j >= 0 && j < t.n {
			want[j] = true
		}
	}
	for i, bj := range t.basis {
		if bj >= 0 && bj < t.n && want[bj] {
			claimed[i] = true
		}
	}
	pivots := 0
	for _, j := range desired {
		if j < 0 || j >= t.n || t.inb[j] {
			continue
		}
		best, row := warmInstallTol, -1
		for i := 0; i < t.m; i++ {
			if claimed[i] {
				continue
			}
			if v := math.Abs(t.a[i*t.w+j]); v > best {
				best, row = v, i
			}
		}
		if row < 0 {
			continue
		}
		t.pivot(row, j)
		claimed[row] = true
		pivots++
	}
	return pivots
}

// warmRepair restores b ≥ 0 after warmInstall. The install pivots land
// on the warm basis regardless of feasibility; under perturbed problem
// data the basic values there are the old ones moved by the
// perturbation, so infeasibilities are typically a few degenerate zeros
// pushed slightly negative. Each repair pivot takes the most negative
// row and brings in the non-basic structural column with the
// largest-magnitude negative entry in it, which makes that row's value
// positive while disturbing the rest by O(|b_row|). Artificials are
// barred (they must stay priceable for the dual extraction). Returns
// (pivots, ok); ok=false — no eligible entering column, or no
// convergence within the pivot budget — tells the caller to throw the
// tableau away and restart cold.
func (t *tableau) warmRepair() (int, bool) {
	budget := 2*t.m + 16
	for k := 0; k < budget; k++ {
		row, worst := -1, -eps
		for i := 0; i < t.m; i++ {
			if t.b[i] < worst {
				worst, row = t.b[i], i
			}
		}
		if row < 0 {
			return k, true
		}
		best, enter := pivotTol, -1
		r := t.row(row)
		for j := 0; j < t.n; j++ {
			if t.inb[j] {
				continue
			}
			if v := -r[j]; v > best {
				best, enter = v, j
			}
		}
		if enter < 0 {
			return k, false
		}
		t.pivot(row, enter)
	}
	return budget, false
}

// artificialMass sums the current values of basic artificial variables —
// the exact phase-1 objective at the current vertex.
func (t *tableau) artificialMass() float64 {
	var sum float64
	for i, bj := range t.basis {
		if bj >= t.n {
			sum += t.b[i]
		}
	}
	return sum
}

// setObjective installs phase costs c and recomputes reduced costs and z
// from the current basis by pricing: c̄ = c − c_Bᵀ·(tableau rows), where the
// tableau body already equals B⁻¹A.
func (t *tableau) setObjective(c []float64) {
	t.cbar = append(t.cbar[:0], c...)
	t.z = 0
	for i, bj := range t.basis {
		if bj < 0 {
			continue
		}
		cb := c[bj]
		if cb == 0 {
			continue
		}
		t.z += cb * t.b[i]
		row := t.row(i)
		for j, a := range row {
			t.cbar[j] -= cb * a
		}
	}
	// Basic columns have exactly zero reduced cost by construction; snap
	// them to kill accumulated noise.
	for _, bj := range t.basis {
		if bj >= 0 {
			t.cbar[bj] = 0
		}
	}
}

// pivotTol is the smallest tableau entry accepted as a pivot element.
// Pivoting divides the row by the pivot, so an entry near the noise
// floor amplifies the whole tableau by its reciprocal; a few such
// pivots compound into overflow-scale garbage on large degenerate
// masters. Rows whose entry in the entering column is below this
// threshold are ineligible to leave — excluding them costs at most
// O(pivotTol) infeasibility, because the same tiny entry is the
// coefficient by which their basic value changes.
const pivotTol = 1e-7

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration cap. phase1 bars nothing; in phase 2 artificial columns may
// not enter. It starts with Dantzig pricing and falls back to Bland's rule
// after stalling (no objective improvement) for a window of pivots; the
// lexicographic ratio test in chooseLeaving is what guarantees
// termination on degenerate problems.
func (t *tableau) iterate(o Options, phase1 bool) (Status, int) {
	bland := o.Bland
	stall := 0
	const stallWindow = 64
	lastZ := t.z
	if cap(t.blocked) < t.w {
		t.blocked = make([]bool, t.w)
	}

	for iter := 0; iter < o.MaxIter; iter++ {
		if err := fault.Inject(fault.LPPivot); err != nil {
			// Pivot loops have no error return; panic-only point, caught
			// by the solver entry containment guards.
			panic(err)
		}
		enter := t.chooseEntering(bland, phase1)
		if enter < 0 {
			return Optimal, iter
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			// No eligible pivot element. If the column is non-positive
			// the problem is genuinely unbounded along it; if it has
			// positive entries below pivotTol, the column is numerically
			// unusable at this basis — block it from pricing and move
			// on rather than divide by noise.
			if t.maxColumnEntry(enter) <= 0 {
				return Unbounded, iter
			}
			t.blocked[enter] = true
			continue
		}
		t.pivot(leave, enter)
		for j := range t.blocked {
			t.blocked[j] = false // new basis, new numerics
		}

		if t.z < lastZ-eps {
			lastZ = t.z
			stall = 0
			bland = o.Bland
		} else {
			stall++
			if stall > stallWindow {
				bland = true
			}
		}
	}
	return IterationLimit, o.MaxIter
}

// maxColumnEntry returns the largest coefficient of column j over all
// rows.
func (t *tableau) maxColumnEntry(j int) float64 {
	best := math.Inf(-1)
	for i := 0; i < t.m; i++ {
		if a := t.a[i*t.w+j]; a > best {
			best = a
		}
	}
	return best
}

// chooseEntering returns the entering column, or -1 at optimality.
func (t *tableau) chooseEntering(bland, phase1 bool) int {
	limit := t.n + t.m
	if !phase1 {
		limit = t.n // artificials may not re-enter in phase 2
	}
	if bland {
		for j := 0; j < limit; j++ {
			if !t.inb[j] && !t.blocked[j] && t.cbar[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, at := -eps, -1
	for j := 0; j < limit; j++ {
		if !t.inb[j] && !t.blocked[j] && t.cbar[j] < best {
			best, at = t.cbar[j], j
		}
	}
	return at
}

// chooseLeaving performs the minimum ratio test on column enter,
// resolving ties lexicographically. The lexicographic rule — among the
// min-ratio rows pick the one whose B⁻¹ row scaled by the pivot element
// is lexicographically smallest — makes every pivot strictly
// lex-decrease the objective row, which rules out cycling for any
// entering rule (Dantzig included). The basis starts at the identity,
// so all rows begin lex-positive as the rule requires. Plain
// smallest-index tie-breaking is not enough here: large degenerate
// column-generation masters (hundreds of rhs-0 best-response rows)
// cycle through zero-ratio pivots indefinitely under it. Returns the
// pivot row, or -1 if the column is unbounded.
func (t *tableau) chooseLeaving(enter int) int {
	bestRatio := math.Inf(1)
	t.ties = t.ties[:0]
	for i := 0; i < t.m; i++ {
		aie := t.a[i*t.w+enter]
		if aie <= pivotTol {
			continue
		}
		ratio := t.b[i] / aie
		switch {
		case ratio < bestRatio-eps:
			bestRatio = ratio
			t.ties = append(t.ties[:0], i)
		case ratio < bestRatio+eps:
			t.ties = append(t.ties, i)
			if ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	if len(t.ties) == 0 {
		return -1
	}
	row := t.ties[0]
	for _, i := range t.ties[1:] {
		if t.lexLess(i, row, enter) {
			row = i
		}
	}
	return row
}

// lexLess reports whether row i strictly precedes row r in the
// lexicographic order used by the ratio test: comparing the rows of the
// artificial block (which carries B⁻¹) scaled by their entries in the
// entering column. Comparisons are exact — the order only needs to be
// total and consistent, and noise-level differences still break the
// degenerate ties that cause cycling.
func (t *tableau) lexLess(i, r, enter int) bool {
	si := 1 / t.a[i*t.w+enter]
	sr := 1 / t.a[r*t.w+enter]
	for j := t.n; j < t.w; j++ {
		vi := t.a[i*t.w+j] * si
		vr := t.a[r*t.w+j] * sr
		if vi != vr {
			return vi < vr
		}
	}
	return false
}

// pivot makes column enter basic in row r.
func (t *tableau) pivot(r, enter int) {
	piv := t.a[r*t.w+enter]
	rowR := t.row(r)
	inv := 1 / piv
	for j := range rowR {
		rowR[j] *= inv
	}
	t.b[r] *= inv
	rowR[enter] = 1 // exact

	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i*t.w+enter]
		if f == 0 {
			continue
		}
		rowI := t.row(i)
		for j := range rowI {
			rowI[j] -= f * rowR[j]
		}
		rowI[enter] = 0 // exact
		t.b[i] -= f * t.b[r]
		if t.b[i] < 0 && t.b[i] > -eps {
			t.b[i] = 0
		}
	}

	f := t.cbar[enter]
	if f != 0 {
		for j := range t.cbar {
			t.cbar[j] -= f * rowR[j]
		}
		t.cbar[enter] = 0
		t.z += f * t.b[r]
	}

	old := t.basis[r]
	if old >= 0 {
		t.inb[old] = false
	}
	t.basis[r] = enter
	t.inb[enter] = true
}

// purgeArtificials removes artificial variables that remain basic at zero
// level after phase 1 by pivoting in any structural column with a nonzero
// entry in that row. Rows with no such column are linearly dependent and
// are neutralized (the artificial stays basic at 0; it can never leave and
// never affects phase 2 because its row is all-zero on structural columns).
func (t *tableau) purgeArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.n {
			continue
		}
		for j := 0; j < t.n; j++ {
			if t.inb[j] {
				continue
			}
			if math.Abs(t.a[i*t.w+j]) > sqrtEps {
				t.pivot(i, j)
				break
			}
		}
	}
}
