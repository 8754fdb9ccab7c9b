package main

import (
	"math/rand"
	"time"

	"auditgame"
)

// synaCell is one cell of the paper's Syn A evaluation.
type synaCell struct {
	name       string
	method     auditgame.SolveMethod
	budget     float64
	exactInner bool
	// golden is the cell's objective as the tables report it; counts
	// are its exact search counts.
	golden float64
	counts map[string]int
}

// synaCells are the five cells one syna-paper cycle solves: Table III's
// brute force at B=2, and Tables IV/V's ISHM with the exact and the CGGS
// inner solver at B ∈ {4, 10}, ε = 0.25.
var synaCells = []synaCell{
	{"table3/brute/B2", auditgame.MethodBruteForce, 2, false, 12.245687146610,
		map[string]int{"solver.grid_points": 7675, "solver.pal_evals": 184320}},
	{"table4/ishm-exact/B4", auditgame.MethodISHM, 4, true, 7.612850204015,
		map[string]int{"solver.ishm_evaluations": 113, "solver.pal_evals": 1728}},
	{"table4/ishm-exact/B10", auditgame.MethodISHM, 10, true, -3.386837987323,
		map[string]int{"solver.ishm_evaluations": 121, "solver.pal_evals": 2472}},
	{"table5/ishm-cggs/B4", auditgame.MethodISHM, 4, false, 7.612850204015,
		map[string]int{"solver.ishm_evaluations": 129, "solver.pal_evals": 244}},
	{"table5/ishm-cggs/B10", auditgame.MethodISHM, 10, false, -3.386837987323,
		map[string]int{"solver.ishm_evaluations": 121, "solver.pal_evals": 292}},
}

// runSynaPaper is the syna-paper workload: back-to-back cold
// Auditor.SolveDetailed calls on the Syn A game, each on a fresh
// exactly-enumerated instance, cycling through the paper's cells. The
// game is the paper's fixed dataset, so the goldens hold at every seed;
// the seed orders the cells within each cycle and draws the select
// probe's counts.
func runSynaPaper(o options, rep *report) error {
	return runSolveWorkload(o, rep, solveSpec{
		// A set-up takes about 60 µs, so many of them make its median.
		setupReps:     101,
		selectBatches: 20,
		setup: func() ([]solveItem, time.Duration, error) {
			t0 := time.Now()
			g, _, err := auditgame.BuildWorkload("syna", auditgame.WorkloadScale{})
			if err != nil {
				return nil, 0, err
			}
			build := time.Since(t0)
			r := rand.New(rand.NewSource(o.seed))
			rows := countRows(g, 64, r)
			items := make([]solveItem, len(synaCells))
			for i, c := range synaCells {
				c := c
				items[i] = solveItem{
					name:   c.name,
					game:   g,
					budget: c.budget,
					cfg: auditgame.AuditorConfig{
						Method: c.method,
						ISHM:   auditgame.ISHMConfig{Epsilon: 0.25, ExactInner: c.exactInner},
					},
					check: func(loss float64, counts map[string]int) error {
						return checkGolden(loss, c.golden, counts, c.counts)
					},
					rows: rows,
				}
			}
			return items, build, nil
		},
	})
}
