package game

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"auditgame/internal/sample"
)

// Thresholds is the per-type audit budget vector b: Thresholds[t] is the
// maximum budget spendable on alerts of type t, so at most
// ⌊Thresholds[t]/C_t⌋ alerts of type t are ever audited.
type Thresholds []float64

// Key returns a canonical cache key for the vector.
func (b Thresholds) Key() string {
	var sb strings.Builder
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', 12, 64))
	}
	return sb.String()
}

// Clone returns a copy of b.
func (b Thresholds) Clone() Thresholds {
	c := make(Thresholds, len(b))
	copy(c, b)
	return c
}

// String renders the vector like the paper's tables, rounding to integers
// when the values are integral.
func (b Thresholds) String() string {
	parts := make([]string, len(b))
	for i, v := range b {
		if v == math.Trunc(v) {
			parts[i] = strconv.Itoa(int(v))
		} else {
			parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// signature is a deduplicated attack row: every victim of an entity whose
// Attack has identical (TypeProbs, R, M, K) induces the same best-response
// constraint, so the LP keeps one row per distinct signature. Ua(o,b,sig)
// = base + delta·Pat with base = R−K and delta = −(M+R).
type signature struct {
	probs []float64
	base  float64 // R − K
	delta float64 // −(M + R)
}

func (s signature) ua(pal []float64) float64 {
	var pat float64
	for t, p := range s.probs {
		if p != 0 {
			pat += p * pal[t]
		}
	}
	return s.base + s.delta*pat
}

// Instance binds a Game to an audit budget and a realization source and
// adds per-entity signature deduplication. It is the evaluation engine
// every solver runs on, safe for concurrent use; it holds no
// detection-probability results (callers keep the vectors they reuse).
type Instance struct {
	G      *Game
	Budget float64
	Src    sample.Source

	// Workers bounds the realization-sharding parallelism of Pal and
	// PalBatch evaluations: 0 means GOMAXPROCS, 1 forces serial. Results
	// are bitwise-identical at every setting (see engine.go).
	Workers int

	// classes are the entity equivalence classes: entities with the same
	// deduplicated signature set share a best response, so the LP keeps
	// one copy weighted by the summed p_e. This is an exact reduction
	// (their u_e coincide in every equilibrium of the zero-sum LP) that
	// shrinks the real-data instances dramatically — e.g. the credit
	// game's 100 applicants collapse to a handful of classes.
	classes     []entityClass
	entityClass []int // entity index → class index
	// zs/ws are the materialized realizations and weights of Src after
	// duplicate rows merge their weights (sample.Dedup). The kernel's
	// row steps read ws with the column-major companions below; zs feeds
	// the budget-consumption columns and PalInjected.
	zs []float64 // flattened realizations, row-major [len(ws)][numTypes]
	ws []float64
	nT int
	// zeffT/zrecipT are max(z, 1) and 1/max(z, 1) laid out column-major
	// [t][row], so the kernel's row steps (engine.go), which iterate rows
	// with the type fixed, stream contiguous memory and multiply by a
	// reciprocal instead of dividing.
	zeffT   []float64
	zrecipT []float64
	// spCols caches per-(type, threshold) budget-consumption columns
	// min(z_t·C_t, b_t) for the trie walk; see spentColumn (trie.go).
	spCols spColCache
	// scratch pools kernel worker state across pal evaluations; see
	// palRun (engine.go) and getTrieScratch (trie.go).
	scratch sync.Pool

	// palEvals counts orderings evaluated by the kernel (engine.go).
	palEvals atomic.Int64
}

type entityClass struct {
	sigs   []signature
	weight float64 // Σ p_e over members
}

// NewInstance validates g and prepares an evaluation instance.
func NewInstance(g *Game, budget float64, src sample.Source) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("game: negative budget %v", budget)
	}
	if src == nil {
		return nil, fmt.Errorf("game: nil realization source")
	}
	in := &Instance{G: g, Budget: budget, Src: src, nT: len(g.Types)}
	rows, weights := sample.Dedup(src)
	if len(rows) == 0 {
		return nil, fmt.Errorf("game: realization source is empty")
	}
	in.ws = weights
	nRows := len(rows)
	in.zs = make([]float64, 0, nRows*in.nT)
	in.zeffT = make([]float64, in.nT*nRows)
	in.zrecipT = make([]float64, in.nT*nRows)
	for zi, z := range rows {
		for t, zt := range z {
			v := float64(zt)
			in.zs = append(in.zs, v)
			if v < 1 {
				v = 1 // the Z′ = max(Z, 1) convention of Eq. 1
			}
			in.zeffT[t*nRows+zi] = v
			in.zrecipT[t*nRows+zi] = 1 / v
		}
	}
	in.entityClass = make([]int, len(g.Entities))
	classOf := make(map[string]int)
	for e := range g.Entities {
		var sigs []signature
		var keys []string
		seen := make(map[string]bool)
		for _, a := range g.Attacks[e] {
			sig := signature{
				probs: a.TypeProbs,
				base:  a.Benefit - a.Cost,
				delta: -(a.Penalty + a.Benefit),
			}
			key := sigKey(sig)
			if seen[key] {
				continue
			}
			seen[key] = true
			sigs = append(sigs, sig)
			keys = append(keys, key)
		}
		sort.Sort(&sigSorter{sigs: sigs, keys: keys})
		classKey := strings.Join(keys, ";")
		ci, ok := classOf[classKey]
		if !ok {
			ci = len(in.classes)
			classOf[classKey] = ci
			in.classes = append(in.classes, entityClass{sigs: sigs})
		}
		in.classes[ci].weight += g.Entities[e].PAttack
		in.entityClass[e] = ci
	}
	return in, nil
}

// sigSorter orders an entity's signatures by canonical key so identical
// signature sets map to identical class keys regardless of victim order.
type sigSorter struct {
	sigs []signature
	keys []string
}

func (s *sigSorter) Len() int           { return len(s.sigs) }
func (s *sigSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *sigSorter) Swap(i, j int) {
	s.sigs[i], s.sigs[j] = s.sigs[j], s.sigs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// sigKey renders a signature as its canonical class key: base, delta and
// the type probabilities, each formatted like %.12g. It runs once per
// attack at instance build, so it appends into one stack buffer and
// allocates only the returned string.
func sigKey(s signature) string {
	var stack [256]byte
	buf := strconv.AppendFloat(stack[:0], s.base, 'g', 12, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, s.delta, 'g', 12, 64)
	buf = append(buf, '|')
	for _, p := range s.probs {
		buf = strconv.AppendFloat(buf, p, 'g', 12, 64)
		buf = append(buf, ',')
	}
	return string(buf)
}

// PalInjected returns the exact detection probability of a single attack
// alert of type attackType under ordering o and thresholds b, accounting
// for the alert itself: the attack inflates its bin from Z to Z+1, which
// both dilutes the audited fraction (n/(Z+1)) and increases the budget
// the bin reserves. Pal (Eq. 1) drops these effects under the paper's
// rare-attack approximation; the difference between the two quantifies
// that approximation and is what the replay validation measures.
func (in *Instance) PalInjected(o Ordering, b Thresholds, attackType int) float64 {
	// Per-position constants hoisted out of the realization loop, as in
	// the Pal kernel.
	costs := make([]float64, len(o))
	caps := make([]float64, len(o))
	for i, t := range o {
		costs[i] = in.G.Types[t].Cost
		caps[i] = math.Floor(b[t] / costs[i])
	}
	var out float64
	nT := in.nT
	for zi, w := range in.ws {
		row := in.zs[zi*nT : (zi+1)*nT]
		spent := 0.0
		for i, t := range o {
			ct := costs[i]
			zt := row[t]
			if t == attackType {
				zt++ // the attack alert joins its bin
				avail := math.Floor((in.Budget - spent) / ct)
				if avail < 0 {
					avail = 0
				}
				nt := math.Min(avail, math.Min(caps[i], zt))
				if nt > 0 {
					out += w * nt / zt
				}
			}
			spent += math.Min(b[t], zt*ct)
		}
	}
	return out
}

// UaRow returns the adversary utilities Ua(o,b,·) for every deduplicated
// attack signature of entity e, given precomputed pal = Pal(o,b).
func (in *Instance) UaRow(e int, pal []float64) []float64 {
	sigs := in.classes[in.entityClass[e]].sigs
	out := make([]float64, len(sigs))
	for i, s := range sigs {
		out[i] = s.ua(pal)
	}
	return out
}

// NumSignatures returns the number of deduplicated attack rows for entity
// e — the count of distinct best-response constraints it contributes.
func (in *Instance) NumSignatures(e int) int {
	return len(in.classes[in.entityClass[e]].sigs)
}

// NumClasses returns the number of entity equivalence classes the LP
// actually optimizes over.
func (in *Instance) NumClasses() int { return len(in.classes) }

// BestResponse returns entity e's best attainable utility against the
// mixed policy defined by orderings Q with probabilities po and thresholds
// b, honoring the no-attack option when the game allows it.
func (in *Instance) BestResponse(e int, Q []Ordering, po []float64, b Thresholds) float64 {
	return in.classBestResponse(in.entityClass[e], po, in.PalsFor(Q, po, b))
}

func (in *Instance) classBestResponse(ci int, po []float64, pals [][]float64) float64 {
	best := math.Inf(-1)
	if in.G.AllowNoAttack {
		best = 0
	}
	for _, s := range in.classes[ci].sigs {
		var u float64
		for qi, pal := range pals {
			if po[qi] == 0 {
				continue
			}
			u += po[qi] * s.ua(pal)
		}
		if u > best {
			best = u
		}
	}
	return best
}

// Loss returns the auditor's expected loss Σ_e p_e·max_v Ua under the
// mixed policy (Q, po, b) — the objective of Eq. 4. The detection
// probabilities of the policy's support are evaluated as one batch.
func (in *Instance) Loss(Q []Ordering, po []float64, b Thresholds) float64 {
	return in.LossFromPals(po, in.PalsFor(Q, po, b))
}

// LossFromPals is Loss with the detection probabilities in hand: pals[qi]
// is Pal(Q[qi], b), and may be nil where po[qi] is zero.
func (in *Instance) LossFromPals(po []float64, pals [][]float64) float64 {
	var loss float64
	for ci := range in.classes {
		if w := in.classes[ci].weight; w != 0 {
			loss += w * in.classBestResponse(ci, po, pals)
		}
	}
	return loss
}
