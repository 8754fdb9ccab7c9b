package game

import (
	"math"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/sample"
)

func synAInstance(t *testing.T) *Instance {
	t.Helper()
	g := SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func allOrderings(n int) []Ordering {
	if n == 1 {
		return []Ordering{{0}}
	}
	var out []Ordering
	for _, sub := range allOrderings(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			o := make(Ordering, 0, n)
			o = append(o, sub[:pos]...)
			o = append(o, n-1)
			o = append(o, sub[pos:]...)
			out = append(out, o)
		}
	}
	return out
}

func TestSolveFixedWarmMatchesCold(t *testing.T) {
	in := synAInstance(t)
	b := in.G.ThresholdCaps()
	Q := allOrderings(len(in.G.Types))

	cold, err := solveAt(in, Q, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatal("cold solve reported no basis")
	}
	warm, err := solveAt(in, Q, b, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("warm objective %.12f != cold %.12f", warm.Objective, cold.Objective)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm re-solve of the identical master took more pivots (%d) than cold (%d)",
			warm.Iterations, cold.Iterations)
	}
	for ci := range warm.RowDuals {
		for s := range warm.RowDuals[ci] {
			if d := math.Abs(warm.RowDuals[ci][s] - cold.RowDuals[ci][s]); d > 1e-7 {
				t.Fatalf("dual [%d][%d] differs: warm %.12f cold %.12f", ci, s,
					warm.RowDuals[ci][s], cold.RowDuals[ci][s])
			}
		}
	}
}

func TestSolveFixedWarmAcrossGrownPool(t *testing.T) {
	// Column-generation shape: solve a small pool, grow it, warm-start
	// the bigger master with the small master's basis.
	in := synAInstance(t)
	b := in.G.ThresholdCaps()
	all := allOrderings(len(in.G.Types))

	small, err := solveAt(in, all[:4], b, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := solveAt(in, all, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solveAt(in, all, b, small.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("warm objective %.12f != cold %.12f", warm.Objective, cold.Objective)
	}
}

func TestSolveFixedWarmAcrossRefitInstance(t *testing.T) {
	// Refit shape: same game structure, perturbed count model. The class
	// structure (and so the master's rows) depends only on the attacks,
	// so the old basis must map onto the new instance's master.
	mk := func(lambda float64) *Instance {
		g := SynA()
		for i := range g.Types {
			g.Types[i].Dist = dist.NewPoisson(lambda+float64(i), 0.999)
		}
		src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(g, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	b := SynA().ThresholdCaps()
	Q := allOrderings(4)

	before, err := solveAt(mk(3.0), Q, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := mk(3.2)
	cold, err := solveAt(after, Q, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solveAt(after, Q, b, before.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("refit warm objective %.12f != cold %.12f", warm.Objective, cold.Objective)
	}
}

func TestSolveFixedWarmRejectsWrongShape(t *testing.T) {
	in := synAInstance(t)
	b := in.G.ThresholdCaps()
	Q := allOrderings(len(in.G.Types))
	cold, err := solveAt(in, Q, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A basis from a structurally different master (different row count)
	// must be ignored, not crash or corrupt the solve.
	bogus := &MasterBasis{rows: append(append([]masterBasisEntry(nil), cold.Basis.rows...), make([]masterBasisEntry, 3)...)}
	warm, err := solveAt(in, Q, b, bogus)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("wrong-shape warm basis changed the answer: %.12f vs %.12f", warm.Objective, cold.Objective)
	}
}
