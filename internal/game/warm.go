package game

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// StructuralFingerprint hashes everything about the instance that the
// restricted master's shape and coefficients depend on except the
// per-type count model: budget, type count and costs, AllowNoAttack,
// and the full entity-class structure (weights and attack signatures).
// Two instances with equal fingerprints build masters with identical
// rows and identically-keyed columns, which is the precondition for
// reusing a MasterBasis and a column pool across a refit; a count-model
// change alone (the refit case) leaves the fingerprint unchanged, while
// budget, type-set, or entity-class changes do not.
func (in *Instance) StructuralFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	wf(in.Budget)
	w64(uint64(in.nT))
	for _, t := range in.G.Types {
		wf(t.Cost)
	}
	if in.G.AllowNoAttack {
		w64(1)
	} else {
		w64(0)
	}
	w64(uint64(len(in.classes)))
	for _, cl := range in.classes {
		wf(cl.weight)
		w64(uint64(len(cl.sigs)))
		for _, sig := range cl.sigs {
			wf(sig.base)
			wf(sig.delta)
			for _, p := range sig.probs {
				wf(p)
			}
		}
	}
	return h.Sum64()
}

// DualPricingScale returns Σ_{c,s} |RowDuals[c][s] · delta_{c,s}|, the
// Lipschitz constant of a column's reduced cost with respect to uniform
// detection-probability perturbation under the solve's duals: every
// pal value moving by at most ε moves any column's reduced cost by at
// most ε times this scale. Multiplied by a bound on the pal shift (the
// summed per-type total-variation distances of a model refit), it
// screens which pooled columns could possibly have priced negative
// under the new model.
func (in *Instance) DualPricingScale(res *LPResult) float64 {
	var sum float64
	for ci := range in.classes {
		for s, sig := range in.classes[ci].sigs {
			sum += math.Abs(res.RowDuals[ci][s] * sig.delta)
		}
	}
	return sum
}

// MasterBasis is the optimal basis of a restricted master LP in
// game-logical coordinates: ordering columns are identified by their
// content key, u_e columns by entity-class index, and slack columns by
// constraint row. That indirection is what makes the basis portable
// across solves — the column pool grows between pricing rounds (an
// ordering's column index shifts, and so do all u and slack columns)
// and a refit rebuilds the whole LP with perturbed coefficients (every
// index is reassigned), but an ordering's key and a class's position
// depend only on the game's attack structure, which both
// transformations preserve.
type MasterBasis struct {
	// rows holds one entry per constraint row of the master it was
	// extracted from.
	rows []masterBasisEntry
}

type masterBasisKind uint8

const (
	mbArtificial masterBasisKind = iota
	mbOrdering
	mbUe
	mbSlack
)

type masterBasisEntry struct {
	kind masterBasisKind
	key  string // ordering content key, for mbOrdering
	idx  int    // class index (mbUe) or constraint row (mbSlack)
	neg  bool   // negative part of the free u_e variable
}

// masterShape is the column layout of a restricted master's standard
// form (see solveFixedFromPals): |Q| ordering columns, a u⁺/u⁻ pair per
// class, then a slack per inequality row — every row but the last.
type masterShape struct {
	nQ, nC, rows int
}

func (in *Instance) masterShape(nQ int) masterShape {
	rows := 1
	for _, cl := range in.classes {
		rows += len(cl.sigs)
		if in.G.AllowNoAttack {
			rows++
		}
	}
	return masterShape{nQ: nQ, nC: len(in.classes), rows: rows}
}

// ue is the u⁺ column of class ci; its u⁻ column follows it.
func (sh masterShape) ue(ci int) int { return sh.nQ + 2*ci }

// slack is the slack/surplus column of inequality row r.
func (sh masterShape) slack(r int) int { return sh.nQ + 2*sh.nC + r }

// cols is the structural column count: the convexity row, last, has no
// slack.
func (sh masterShape) cols() int { return sh.slack(sh.rows - 1) }

// columns translates the basis into tableau columns of a master over
// the ordering set Q, in row order. Entries that no longer map —
// orderings that have left the pool, artificials, classes or rows
// beyond the master — are dropped, and their rows keep the crash
// start. A basis with a different row count (a different class
// structure) is ignored altogether.
func (mb *MasterBasis) columns(Q []Ordering, sh masterShape) []int {
	if mb == nil || len(mb.rows) != sh.rows {
		return nil
	}
	at := make(map[string]int, len(Q))
	for qi, o := range Q {
		at[o.Key()] = qi
	}
	cols := make([]int, 0, sh.rows)
	for _, e := range mb.rows {
		switch e.kind {
		case mbOrdering:
			if qi, ok := at[e.key]; ok {
				cols = append(cols, qi)
			}
		case mbUe:
			if e.idx >= 0 && e.idx < sh.nC {
				j := sh.ue(e.idx)
				if e.neg {
					j++
				}
				cols = append(cols, j)
			}
		case mbSlack:
			if e.idx >= 0 && e.idx < sh.rows-1 {
				cols = append(cols, sh.slack(e.idx))
			}
		}
	}
	return cols
}

// masterBasisFromColumns translates an optimal basis, one tableau
// column per row, back into game-logical coordinates.
func masterBasisFromColumns(cols []int, Q []Ordering, sh masterShape) *MasterBasis {
	mb := &MasterBasis{rows: make([]masterBasisEntry, len(cols))}
	for i, j := range cols {
		switch {
		case j < sh.nQ:
			mb.rows[i] = masterBasisEntry{kind: mbOrdering, key: Q[j].Key()}
		case j < sh.slack(0):
			k := j - sh.nQ
			mb.rows[i] = masterBasisEntry{kind: mbUe, idx: k / 2, neg: k%2 == 1}
		case j < sh.cols():
			mb.rows[i] = masterBasisEntry{kind: mbSlack, idx: j - sh.slack(0)}
		}
	}
	return mb
}
