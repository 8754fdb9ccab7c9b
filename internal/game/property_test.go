package game

import (
	"math"
	"testing"
	"testing/quick"

	"auditgame/internal/dist"
	"auditgame/internal/sample"
)

// propertyGame builds a randomized small game from quick-check bytes.
func propertyGame(meanRaw [3]uint8, benefitRaw [3]uint8) *Game {
	g := &Game{}
	for t := 0; t < 3; t++ {
		mean := float64(meanRaw[t]%8) + 2
		g.Types = append(g.Types, AlertType{
			Name: "T",
			Cost: 1,
			Dist: dist.NewGaussianHalfWidth(mean, 1.2, 2),
		})
	}
	g.Entities = []Entity{{Name: "e1", PAttack: 1}, {Name: "e2", PAttack: 0.5}}
	g.Victims = []string{"v1", "v2", "v3"}
	g.Attacks = make([][]Attack, 2)
	for e := range g.Attacks {
		g.Attacks[e] = make([]Attack, 3)
		for v := range g.Attacks[e] {
			benefit := float64(benefitRaw[v]%6) + 1
			g.Attacks[e][v] = DeterministicAttack(3, (e+v)%3, benefit, 4, 0.4)
		}
	}
	return g
}

// Property: Pal values are probabilities — every entry lies in [0, 1] for
// any ordering, thresholds, and budget.
func TestPalIsProbabilityProperty(t *testing.T) {
	perms := AllOrderings(3)
	f := func(meanRaw, benefitRaw [3]uint8, bRaw [3]uint8, budgetRaw, permRaw uint8) bool {
		g := propertyGame(meanRaw, benefitRaw)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			return true // skip oversized supports
		}
		in, err := NewInstance(g, float64(budgetRaw%20), src)
		if err != nil {
			return false
		}
		b := Thresholds{float64(bRaw[0] % 12), float64(bRaw[1] % 12), float64(bRaw[2] % 12)}
		pal := in.Pal(perms[int(permRaw)%len(perms)], b)
		for _, p := range pal {
			if p < -1e-12 || p > 1+1e-12 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: detection probabilities are non-decreasing in the budget for
// a fixed ordering and thresholds — more budget can only audit more.
func TestPalMonotoneInBudgetProperty(t *testing.T) {
	f := func(meanRaw, benefitRaw [3]uint8, bRaw [3]uint8, b1Raw, b2Raw uint8) bool {
		g := propertyGame(meanRaw, benefitRaw)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			return true
		}
		lo := float64(b1Raw % 15)
		hi := lo + float64(b2Raw%10)
		inLo, err := NewInstance(g, lo, src)
		if err != nil {
			return false
		}
		inHi, err := NewInstance(g, hi, src)
		if err != nil {
			return false
		}
		b := Thresholds{float64(bRaw[0] % 10), float64(bRaw[1] % 10), float64(bRaw[2] % 10)}
		o := Ordering{0, 1, 2}
		palLo := inLo.Pal(o, b)
		palHi := inHi.Pal(o, b)
		for t := range palLo {
			if palHi[t] < palLo[t]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first type in the ordering is never hurt by raising its
// own threshold (it audits weakly more of its own alerts).
func TestPalFirstTypeMonotoneInOwnThresholdProperty(t *testing.T) {
	f := func(meanRaw, benefitRaw [3]uint8, baseRaw, bumpRaw uint8) bool {
		g := propertyGame(meanRaw, benefitRaw)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			return true
		}
		in, err := NewInstance(g, 8, src)
		if err != nil {
			return false
		}
		base := float64(baseRaw % 8)
		bump := base + float64(bumpRaw%5)
		o := Ordering{0, 1, 2}
		palA := in.Pal(o, Thresholds{base, 3, 3})
		palB := in.Pal(o, Thresholds{bump, 3, 3})
		return palB[0] >= palA[0]-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the restricted LP objective never improves when columns are
// removed — solving over a subset of orderings is weakly worse for the
// auditor.
func TestRestrictedLPMonotoneInColumnsProperty(t *testing.T) {
	f := func(meanRaw, benefitRaw [3]uint8, budgetRaw uint8) bool {
		g := propertyGame(meanRaw, benefitRaw)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			return true
		}
		in, err := NewInstance(g, float64(budgetRaw%10)+1, src)
		if err != nil {
			return false
		}
		b := Thresholds{3, 3, 3}
		all := AllOrderings(3)
		full, err := solveAt(in, all, b, nil)
		if err != nil {
			return false
		}
		sub, err := solveAt(in, all[:2], b, nil)
		if err != nil {
			return false
		}
		return sub.Objective >= full.Objective-1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: at the full-LP optimum, the attacker's value equals what the
// Loss evaluator recomputes from scratch (LP ↔ simulation consistency).
func TestLPLossConsistencyProperty(t *testing.T) {
	f := func(meanRaw, benefitRaw [3]uint8, budgetRaw uint8) bool {
		g := propertyGame(meanRaw, benefitRaw)
		src, err := sample.NewEnumerator(g.Dists(), 10000)
		if err != nil {
			return true
		}
		in, err := NewInstance(g, float64(budgetRaw%12), src)
		if err != nil {
			return false
		}
		b := Thresholds{2, 4, 3}
		all := AllOrderings(3)
		res, err := solveAt(in, all, b, nil)
		if err != nil {
			return false
		}
		return math.Abs(in.Loss(all, res.Po, b)-res.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
