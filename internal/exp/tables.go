package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"

	"auditgame/internal/game"
	"auditgame/internal/metrics"
	"auditgame/internal/solver"
)

// Table3Row is one row of Table III: the brute-force OAP optimum at one
// budget.
type Table3Row struct {
	ID         int
	Budget     float64
	Objective  float64
	Thresholds game.Thresholds
	// Support and Probs are the effective pure strategies and the
	// optimal mixed strategy over them.
	Support []game.Ordering
	Probs   []float64
	// Explored/GridSize account for the brute-force search effort.
	Explored, GridSize int
}

// Table3 computes the optimal solution of the OAP on Syn A for each
// budget by brute force (§IV-B). Budgets run in parallel; the result is
// deterministic because every budget is an independent instance.
func Table3(budgets []float64) ([]Table3Row, error) {
	rows := make([]Table3Row, len(budgets))
	err := forEachIndex(len(budgets), 0, func(i int) error {
		B := budgets[i]
		in, err := SynAInstance(B)
		if err != nil {
			return err
		}
		bf, err := solver.BruteForce(context.Background(), in)
		if err != nil {
			return fmt.Errorf("exp: table3 B=%v: %w", B, err)
		}
		sup, probs := bf.Policy.Support()
		rows[i] = Table3Row{
			ID:         i + 1,
			Budget:     B,
			Objective:  bf.Policy.Objective,
			Thresholds: bf.Policy.Thresholds,
			Support:    sup,
			Probs:      probs,
			Explored:   bf.Explored,
			GridSize:   bf.GridSize,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III: optimal OAP solution under various budgets (Syn A)")
	fmt.Fprintln(w, "ID  Budget  OptObjective  OptThreshold  MixedStrategy")
	for _, r := range rows {
		var ms strings.Builder
		for i, o := range r.Support {
			if i > 0 {
				ms.WriteByte(' ')
			}
			fmt.Fprintf(&ms, "%s:%.4f", o, r.Probs[i])
		}
		fmt.Fprintf(w, "%-3d %-7.0f %-13.4f %-13s %s\n", r.ID, r.Budget, r.Objective, r.Thresholds, ms.String())
	}
}

// GridCell is one (B, ε) cell of Tables IV/V: the heuristic objective, the
// thresholds it selected, and the number of threshold vectors it checked
// (the Table VII quantity).
type GridCell struct {
	Objective  float64
	Thresholds game.Thresholds
	// Evaluations counts threshold vectors submitted to the inner
	// solver; Unique counts distinct ones.
	Evaluations, Unique int
}

// GridResult is a full Table IV/V-style sweep.
type GridResult struct {
	Budgets  []float64
	Epsilons []float64
	// Cells[bi][ei] is the cell for Budgets[bi], Epsilons[ei].
	Cells [][]GridCell
}

// Objectives returns the objective column at epsilon index ei across
// budgets.
func (g *GridResult) Objectives(ei int) []float64 {
	out := make([]float64, len(g.Budgets))
	for bi := range g.Budgets {
		out[bi] = g.Cells[bi][ei].Objective
	}
	return out
}

// ishmGrid runs ISHM across the (budget, epsilon) grid with the given
// inner solver. Budget rows run in parallel; within a row the instance
// (and its detection-probability cache) is shared across the ε sweep,
// and the ISHM combo loop fans out again so a grid narrower than the
// machine still fills every core. Results are deterministic at every
// level (see solver.ISHMOptions.Workers and game/engine.go).
func ishmGrid(budgets, epsilons []float64, inner solver.Inner) (*GridResult, error) {
	res := &GridResult{Budgets: budgets, Epsilons: epsilons}
	res.Cells = make([][]GridCell, len(budgets))
	err := forEachIndex(len(budgets), 0, func(bi int) error {
		B := budgets[bi]
		in, err := SynAInstance(B)
		if err != nil {
			return err
		}
		row := make([]GridCell, 0, len(epsilons))
		for _, eps := range epsilons {
			r, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
				Epsilon:         eps,
				Inner:           inner,
				EvaluateInitial: true,
				Workers:         runtime.GOMAXPROCS(0),
			})
			if err != nil {
				return fmt.Errorf("exp: ISHM B=%v ε=%v: %w", B, eps, err)
			}
			row = append(row, GridCell{
				Objective:   r.Policy.Objective,
				Thresholds:  r.Policy.Thresholds,
				Evaluations: r.Evaluations,
				Unique:      r.UniqueEvaluations,
			})
		}
		res.Cells[bi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table4 runs ISHM with the exact (all-orderings) inner LP across the
// grid — the paper's Table IV.
func Table4(budgets, epsilons []float64) (*GridResult, error) {
	return ishmGrid(budgets, epsilons, solver.ExactInner)
}

// Table5 runs ISHM with CGGS as the inner solver — the paper's Table V.
func Table5(budgets, epsilons []float64) (*GridResult, error) {
	return ishmGrid(budgets, epsilons, solver.CGGSInner)
}

// PrintGrid renders a Table IV/V-style grid: objective and thresholds per
// (B, ε).
func PrintGrid(w io.Writer, title string, g *GridResult) {
	fmt.Fprintln(w, title)
	fmt.Fprint(w, "B    ")
	for _, e := range g.Epsilons {
		fmt.Fprintf(w, " ε=%-11.2f", e)
	}
	fmt.Fprintln(w)
	for bi, B := range g.Budgets {
		fmt.Fprintf(w, "%-5.0f", B)
		for ei := range g.Epsilons {
			fmt.Fprintf(w, " %-13.4f", g.Cells[bi][ei].Objective)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "     ")
		for ei := range g.Epsilons {
			fmt.Fprintf(w, " %-13s", g.Cells[bi][ei].Thresholds)
		}
		fmt.Fprintln(w)
	}
}

// Table6 computes the γ precision rows from Table III optima and the
// Table IV/V grids: γ¹ for ISHM+exact, γ² for ISHM+CGGS, one value per ε.
func Table6(t3 []Table3Row, t4, t5 *GridResult) (gamma1, gamma2 []float64, err error) {
	opt := make([]float64, len(t3))
	for i, r := range t3 {
		opt[i] = r.Objective
	}
	gamma1 = make([]float64, len(t4.Epsilons))
	gamma2 = make([]float64, len(t5.Epsilons))
	for ei := range t4.Epsilons {
		if gamma1[ei], err = metrics.Gamma(opt, t4.Objectives(ei)); err != nil {
			return nil, nil, err
		}
	}
	for ei := range t5.Epsilons {
		if gamma2[ei], err = metrics.Gamma(opt, t5.Objectives(ei)); err != nil {
			return nil, nil, err
		}
	}
	return gamma1, gamma2, nil
}

// PrintTable6 renders the γ rows.
func PrintTable6(w io.Writer, epsilons, gamma1, gamma2 []float64) {
	fmt.Fprintln(w, "Table VI: average precision γ over the budget sweep")
	fmt.Fprint(w, "ε   ")
	for _, e := range epsilons {
		fmt.Fprintf(w, " %-7.2f", e)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "γ¹  ")
	for _, g := range gamma1 {
		fmt.Fprintf(w, " %-7.4f", g)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "γ²  ")
	for _, g := range gamma2 {
		fmt.Fprintf(w, " %-7.4f", g)
	}
	fmt.Fprintln(w)
}

// Table7Result carries the exploration accounting of Table VII plus the
// paper's T (mean explored per ε) and T′ (ratio to the brute-force grid)
// vectors.
type Table7Result struct {
	Budgets  []float64
	Epsilons []float64
	// Explored[bi][ei] is the number of threshold vectors checked.
	Explored [][]int
	// MeanPerEpsilon is T; RatioPerEpsilon is T′.
	MeanPerEpsilon  []float64
	RatioPerEpsilon []float64
	GridSize        int
}

// Table7 extracts exploration counts from a Table IV-style grid and
// normalizes by the brute-force grid size.
func Table7(t4 *GridResult, gridSize int) (*Table7Result, error) {
	if gridSize <= 0 {
		return nil, fmt.Errorf("exp: table7 needs a positive grid size, got %d", gridSize)
	}
	res := &Table7Result{
		Budgets:  t4.Budgets,
		Epsilons: t4.Epsilons,
		GridSize: gridSize,
	}
	for bi := range t4.Budgets {
		row := make([]int, len(t4.Epsilons))
		for ei := range t4.Epsilons {
			row[ei] = t4.Cells[bi][ei].Evaluations
		}
		res.Explored = append(res.Explored, row)
	}
	for ei := range t4.Epsilons {
		col := make([]int, len(t4.Budgets))
		for bi := range t4.Budgets {
			col[bi] = res.Explored[bi][ei]
		}
		mean := metrics.MeanInt(col)
		res.MeanPerEpsilon = append(res.MeanPerEpsilon, mean)
		res.RatioPerEpsilon = append(res.RatioPerEpsilon, mean/float64(gridSize))
	}
	return res, nil
}

// PrintTable7 renders the exploration counts and the T/T′ vectors.
func PrintTable7(w io.Writer, r *Table7Result) {
	fmt.Fprintln(w, "Table VII: threshold vectors checked by ISHM per (B, ε)")
	fmt.Fprint(w, "ε\\B  ")
	for _, B := range r.Budgets {
		fmt.Fprintf(w, " %-6.0f", B)
	}
	fmt.Fprintln(w)
	for ei, e := range r.Epsilons {
		fmt.Fprintf(w, "%-5.2f", e)
		for bi := range r.Budgets {
			fmt.Fprintf(w, " %-6d", r.Explored[bi][ei])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "T  = [")
	for i, m := range r.MeanPerEpsilon {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%.0f", m)
	}
	fmt.Fprintln(w, "]")
	fmt.Fprint(w, "T' = [")
	for i, t := range r.RatioPerEpsilon {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%.4f", t)
	}
	fmt.Fprintf(w, "]  (grid size %d)\n", r.GridSize)
}
