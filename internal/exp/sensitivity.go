package exp

import (
	"context"
	"fmt"
	"io"

	"auditgame/internal/dist"
	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/workload"
)

// The paper's §VII flags two open questions this file answers
// empirically: how sensitive the "proposed model beats the baselines"
// result is to the game's parameters (penalty magnitude, attack
// likelihood p_e), and how the computed policy degrades when adversaries
// are only boundedly rational.

// SensitivityRow is one parameterization of Syn A with the proposed
// policy's loss and the three baselines'.
type SensitivityRow struct {
	Penalty  float64
	PAttack  float64
	Proposed float64
	RandomThresholds,
	RandomOrders,
	GreedyBenefit float64
}

// SensitivityConfig tunes the sweep.
type SensitivityConfig struct {
	// Budget is the audit budget (the sweep holds it fixed). Zero means
	// 6, the middle of the Syn A range.
	Budget float64
	// Penalties and PAttacks are the grids. Nil means {1, 4, 16} and
	// {0.25, 0.5, 1}.
	Penalties, PAttacks []float64
	// Epsilon is the ISHM step. Zero means 0.2.
	Epsilon float64
	// Draws is the random-threshold repetition count. Zero means 10.
	Draws int
	// Seed drives the baselines.
	Seed int64
}

func (c SensitivityConfig) withDefaults() SensitivityConfig {
	if c.Budget == 0 {
		c.Budget = 6
	}
	if c.Penalties == nil {
		c.Penalties = []float64{1, 4, 16}
	}
	if c.PAttacks == nil {
		c.PAttacks = []float64{0.25, 0.5, 1}
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.2
	}
	if c.Draws == 0 {
		c.Draws = 10
	}
	return c
}

// synAVariant builds Syn A with the capture penalty and attack
// probability overridden.
func synAVariant(penalty, pAttack float64) *game.Game {
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		panic("exp: syna workload cannot fail to build: " + err.Error())
	}
	for e := range g.Entities {
		g.Entities[e].PAttack = pAttack
	}
	for e := range g.Attacks {
		for v := range g.Attacks[e] {
			g.Attacks[e][v].Penalty = penalty
		}
	}
	return g
}

// Sensitivity sweeps (penalty × p_e) on Syn A and reports the proposed
// policy's loss against every baseline at each point. The paper's claim
// is robust if the proposed column is the minimum of every row.
func Sensitivity(cfg SensitivityConfig) ([]SensitivityRow, error) {
	cfg = cfg.withDefaults()
	var rows []SensitivityRow
	for _, penalty := range cfg.Penalties {
		for _, pa := range cfg.PAttacks {
			g := synAVariant(penalty, pa)
			src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
			if err != nil {
				return nil, err
			}
			in, err := game.NewInstance(g, cfg.Budget, src)
			if err != nil {
				return nil, err
			}
			ishm, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
				Epsilon: cfg.Epsilon, Inner: solver.ExactInner,
				EvaluateInitial: true,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: sensitivity M=%v pe=%v: %w", penalty, pa, err)
			}
			rt, err := solver.RandomThresholdLoss(context.Background(), in, cfg.Draws, cfg.Seed, solver.ExactInner)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SensitivityRow{
				Penalty:          penalty,
				PAttack:          pa,
				Proposed:         ishm.Policy.Objective,
				RandomThresholds: rt,
				RandomOrders:     solver.RandomOrderLoss(in, ishm.Policy.Thresholds, 500, cfg.Seed),
				GreedyBenefit:    solver.GreedyBenefitLoss(in),
			})
		}
	}
	return rows, nil
}

// PrintSensitivity renders the sweep.
func PrintSensitivity(w io.Writer, rows []SensitivityRow) {
	fmt.Fprintln(w, "Sensitivity: auditor loss by (penalty M, attack probability p_e), Syn A")
	fmt.Fprintln(w, "M      p_e    proposed   rand-thresh  rand-order  greedy-benefit")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6.4g %-6.4g %-10.4f %-12.4f %-11.4f %-.4f\n",
			r.Penalty, r.PAttack, r.Proposed, r.RandomThresholds, r.RandomOrders, r.GreedyBenefit)
	}
}

// QuantalRow is one λ point of the bounded-rationality evaluation.
type QuantalRow struct {
	Lambda float64
	// Loss is the auditor's loss under quantal-response adversaries.
	Loss float64
}

// QuantalRobustness solves Syn A at the given budget with ISHM (the
// fully-rational policy) and evaluates that fixed policy against
// quantal-response adversaries across the λ grid. λ → ∞ recovers the
// solver's own objective; smaller λ shows how much the auditor is
// over-insured when adversaries are noisy.
func QuantalRobustness(budget float64, lambdas []float64) ([]QuantalRow, error) {
	if lambdas == nil {
		lambdas = []float64{0, 0.5, 1, 2, 4, 8, 1e6}
	}
	in, err := SynAInstance(budget)
	if err != nil {
		return nil, err
	}
	ishm, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
		Epsilon: 0.1, Inner: solver.ExactInner, EvaluateInitial: true,
	})
	if err != nil {
		return nil, err
	}
	pol := ishm.Policy
	rows := make([]QuantalRow, 0, len(lambdas))
	for _, l := range lambdas {
		loss, err := in.QuantalLoss(pol.Q, pol.Po, pol.Thresholds, game.QuantalConfig{Lambda: l})
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantalRow{Lambda: l, Loss: loss})
	}
	return rows, nil
}

// PrintQuantal renders the robustness curve.
func PrintQuantal(w io.Writer, budget float64, rows []QuantalRow) {
	fmt.Fprintf(w, "Quantal-response robustness of the ISHM policy (Syn A, B=%g)\n", budget)
	fmt.Fprintln(w, "lambda    auditor loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9.4g %.4f\n", r.Lambda, r.Loss)
	}
}

// WorkloadShiftRow reports policy degradation when the deployed workload
// drifts from the one the policy was fitted on.
type WorkloadShiftRow struct {
	// Scale multiplies every alert type's mean count.
	Scale float64
	// Refit is the loss of a policy solved against the shifted
	// workload; Stale is the fitted-on-original policy evaluated on the
	// shifted workload.
	Refit, Stale float64
}

// WorkloadShift measures robustness to workload drift on Syn A: alert
// count means are scaled by each factor, and the original-policy loss is
// compared to a refit policy. This extends the paper's static-workload
// assumption (§II-A's "distribution is known") with a quantitative aging
// curve.
func WorkloadShift(budget float64, scales []float64) ([]WorkloadShiftRow, error) {
	if scales == nil {
		scales = []float64{0.5, 0.75, 1, 1.5, 2}
	}
	base, err := SynAInstance(budget)
	if err != nil {
		return nil, err
	}
	orig, err := solver.ISHM(context.Background(), base, solver.ISHMOptions{
		Epsilon: 0.1, Inner: solver.ExactInner, EvaluateInitial: true,
	})
	if err != nil {
		return nil, err
	}

	means := []float64{6, 5, 4, 4}
	stds := []float64{2, 1.6, 1.3, 1}
	hws := []int{5, 4, 3, 3}
	rows := make([]WorkloadShiftRow, 0, len(scales))
	for _, s := range scales {
		g, _, err := workload.Build("syna", workload.Scale{})
		if err != nil {
			return nil, err
		}
		for t := range g.Types {
			g.Types[t].Dist = dist.NewGaussianHalfWidth(means[t]*s, stds[t], hws[t])
		}
		src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
		if err != nil {
			return nil, err
		}
		in, err := game.NewInstance(g, budget, src)
		if err != nil {
			return nil, err
		}
		refit, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
			Epsilon: 0.1, Inner: solver.ExactInner, EvaluateInitial: true,
		})
		if err != nil {
			return nil, err
		}
		stale := in.Loss(orig.Policy.Q, orig.Policy.Po, orig.Policy.Thresholds)
		rows = append(rows, WorkloadShiftRow{Scale: s, Refit: refit.Policy.Objective, Stale: stale})
	}
	return rows, nil
}

// PrintWorkloadShift renders the drift table.
func PrintWorkloadShift(w io.Writer, budget float64, rows []WorkloadShiftRow) {
	fmt.Fprintf(w, "Workload drift robustness (Syn A, B=%g): refit vs stale policy\n", budget)
	fmt.Fprintln(w, "scale   refit loss   stale loss   regret")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7.3g %-12.4f %-12.4f %.4f\n", r.Scale, r.Refit, r.Stale, r.Stale-r.Refit)
	}
}
