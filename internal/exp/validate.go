package exp

import (
	"context"
	"fmt"
	"io"

	"auditgame/internal/game"
	"auditgame/internal/policy"
	"auditgame/internal/replay"
	"auditgame/internal/solver"
)

// ValidationRow compares, for one attack, the model's detection
// probability (Eq. 2, rare-attack approximation), the exact executed
// probability (attack alert counted in its bin), and the empirical
// frequency from replaying the policy.
type ValidationRow struct {
	Entity, Victim string
	AlertType      string
	Model          float64 // Eq. 1/2 prediction the LP optimizes
	Injected       float64 // exact executed probability
	Empirical      float64 // measured by replay
}

// ValidateConfig tunes the replay validation.
type ValidateConfig struct {
	// Budget for the solved policy. Zero means 10.
	Budget float64
	// Trials per attack. Zero means 30000.
	Trials int
	// Seed drives the replay.
	Seed int64
}

func (c ValidateConfig) withDefaults() ValidateConfig {
	if c.Budget == 0 {
		c.Budget = 10
	}
	if c.Trials == 0 {
		c.Trials = 30000
	}
	return c
}

// Validate solves Syn A with ISHM, deploys the policy through the replay
// simulator, and reports model vs executed vs empirical detection
// probability for one attack per alert type. It is the end-to-end
// integration experiment: LP, column machinery, policy packaging and the
// recourse executor all have to agree for the rows to line up.
func Validate(cfg ValidateConfig) ([]ValidationRow, error) {
	cfg = cfg.withDefaults()
	in, err := SynAInstance(cfg.Budget)
	if err != nil {
		return nil, err
	}
	g := in.G
	res, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
		Epsilon: 0.1, Inner: solver.ExactInner, EvaluateInitial: true,
	})
	if err != nil {
		return nil, err
	}

	pol := &policy.Policy{Budget: cfg.Budget, ExpectedLoss: res.Policy.Objective}
	for _, at := range g.Types {
		pol.TypeNames = append(pol.TypeNames, at.Name)
		pol.Costs = append(pol.Costs, at.Cost)
	}
	pol.Thresholds = []float64(res.Policy.Thresholds)
	support, probs := res.Policy.Support()
	for i, o := range support {
		pol.Orderings = append(pol.Orderings, []int(o))
		pol.Probs = append(pol.Probs, probs[i])
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}

	// One attack per alert type: the first ⟨e,v⟩ whose attack raises it.
	var rows []ValidationRow
	for t := range g.Types {
		e, v, found := findAttack(g, t)
		if !found {
			continue
		}
		model, err := replay.Predict(in, pol, e, v)
		if err != nil {
			return nil, err
		}
		inj, err := replay.PredictInjected(in, pol, e, v)
		if err != nil {
			return nil, err
		}
		run, err := replay.Run(g, pol, e, v, replay.Config{Trials: cfg.Trials, Seed: cfg.Seed + int64(t)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{
			Entity:    g.Entities[e].Name,
			Victim:    g.Victims[v],
			AlertType: g.Types[t].Name,
			Model:     model,
			Injected:  inj,
			Empirical: run.Empirical,
		})
	}
	return rows, nil
}

func findAttack(g *game.Game, t int) (e, v int, ok bool) {
	for e := range g.Attacks {
		for v, a := range g.Attacks[e] {
			if a.TypeProbs[t] > 0 {
				return e, v, true
			}
		}
	}
	return 0, 0, false
}

// PrintValidation renders the comparison.
func PrintValidation(w io.Writer, cfg ValidateConfig, rows []ValidationRow) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Replay validation (Syn A, B=%g, %d trials/attack)\n", cfg.Budget, cfg.Trials)
	fmt.Fprintln(w, "attack           alert type  model(Eq.1)  executed   empirical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s -> %-8s %-11s %-12.4f %-10.4f %.4f\n",
			r.Entity, r.Victim, r.AlertType, r.Model, r.Injected, r.Empirical)
	}
	fmt.Fprintln(w, "model ≥ executed: the gap is the paper's rare-attack approximation")
}
