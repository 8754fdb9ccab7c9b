package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"auditgame/internal/game"
	"auditgame/internal/metrics"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/workload"
)

// PaperBudgetsFig1 is the Rea A budget sweep (Figure 1).
var PaperBudgetsFig1 = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// PaperBudgetsFig2 is the Rea B budget sweep (Figure 2).
var PaperBudgetsFig2 = []float64{10, 30, 50, 70, 90, 110, 130, 150, 170, 190, 210, 230, 250}

// FigureResult is one figure: loss curves over a budget sweep.
type FigureResult struct {
	Budgets []float64
	Series  []metrics.Series
}

// FigOptions tunes the figure experiments. The zero value gives a
// configuration that reproduces the figures' shape in minutes; the paper's
// repetition counts (5000 random-threshold draws, 2000 random orders) are
// available by overriding.
type FigOptions struct {
	// Epsilons are the ISHM step sizes plotted for the proposed model.
	// Nil means {0.1, 0.2, 0.3} (the paper's three curves).
	Epsilons []float64
	// RandomThresholdDraws is the repetition count of the random-
	// threshold baseline. Zero means 30.
	RandomThresholdDraws int
	// RandomOrderSamples is the sample size for the random-order
	// baseline when |T|! is too large to enumerate. Zero means 2000.
	RandomOrderSamples int
	// BankSize is the Monte-Carlo sample-bank size for detection
	// probabilities. Zero means 400.
	BankSize int
	// MaxSubset caps ISHM's shrink-subset size on the 7-type EMR game
	// (0 = |T|, the paper's full search). The figures' shape is
	// insensitive to it; it trades fidelity for wall-clock time.
	MaxSubset int
	// Seed drives all randomness (dataset synthesis, sampling, banks).
	Seed int64
}

func (o FigOptions) withDefaults() FigOptions {
	if o.Epsilons == nil {
		o.Epsilons = []float64{0.1, 0.2, 0.3}
	}
	if o.RandomThresholdDraws == 0 {
		o.RandomThresholdDraws = 30
	}
	if o.RandomOrderSamples == 0 {
		o.RandomOrderSamples = 2000
	}
	if o.BankSize == 0 {
		o.BankSize = 400
	}
	return o
}

// Fig1 reproduces Figure 1: auditor loss versus budget on the EMR
// workload for the proposed model at three ε values and the three
// baselines.
func Fig1(budgets []float64, opt FigOptions) (*FigureResult, error) {
	return FigWorkload("emr", budgets, opt)
}

// Fig2 reproduces Figure 2: the same comparison on the credit workload.
func Fig2(budgets []float64, opt FigOptions) (*FigureResult, error) {
	return FigWorkload("credit", budgets, opt)
}

// FigWorkload runs the figure experiment — proposed model at each ε
// against the three baselines over a budget sweep — on any registered
// workload. The game is built at the workload's default scale with
// opt.Seed; "emr" and "credit" reproduce Figures 1 and 2 exactly.
func FigWorkload(name string, budgets []float64, opt FigOptions) (*FigureResult, error) {
	opt = opt.withDefaults()
	g, _, err := workload.Build(name, workload.Scale{Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return figure(g, budgets, opt)
}

// figure sweeps the budget and evaluates the proposed model and baselines
// on one game.
func figure(g *game.Game, budgets []float64, opt FigOptions) (*FigureResult, error) {
	res := &FigureResult{Budgets: budgets}
	nSeries := len(opt.Epsilons) + 3
	res.Series = make([]metrics.Series, nSeries)
	for i, eps := range opt.Epsilons {
		res.Series[i] = metrics.Series{Name: fmt.Sprintf("Proposed model ε=%.1f", eps)}
	}
	res.Series[len(opt.Epsilons)] = metrics.Series{Name: "Audit with random thresholds"}
	res.Series[len(opt.Epsilons)+1] = metrics.Series{Name: "Audit with random orders of alert types"}
	res.Series[len(opt.Epsilons)+2] = metrics.Series{Name: "Audit based on benefit"}

	for i := range res.Series {
		res.Series[i].Values = make([]float64, len(budgets))
	}
	err := forEachIndex(len(budgets), 0, func(bi int) error {
		B := budgets[bi]
		src := sample.Auto(g.Dists(), sample.DefaultEnumerationLimit, opt.BankSize, opt.Seed+2)
		in, err := game.NewInstance(g, B, src)
		if err != nil {
			return err
		}
		// Proposed model at each ε; remember the ε=Epsilons[0]
		// thresholds for the random-order baseline (the paper borrows
		// the ε=0.1 thresholds there).
		var borrowed game.Thresholds
		for i, eps := range opt.Epsilons {
			r, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
				Epsilon:         eps,
				Inner:           solver.CGGSInner,
				EvaluateInitial: true,
				MaxSubset:       opt.MaxSubset,
				Workers:         runtime.GOMAXPROCS(0),
			})
			if err != nil {
				return fmt.Errorf("exp: figure ISHM B=%v ε=%v: %w", B, eps, err)
			}
			res.Series[i].Values[bi] = r.Policy.Objective
			if i == 0 {
				borrowed = r.Policy.Thresholds
			}
		}

		rt, err := solver.RandomThresholdLoss(context.Background(), in, opt.RandomThresholdDraws, opt.Seed+3, solver.CGGSInner)
		if err != nil {
			return err
		}
		res.Series[len(opt.Epsilons)].Values[bi] = rt
		res.Series[len(opt.Epsilons)+1].Values[bi] = solver.RandomOrderLoss(in, borrowed, opt.RandomOrderSamples, opt.Seed+4)
		res.Series[len(opt.Epsilons)+2].Values[bi] = solver.GreedyBenefitLoss(in)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PrintFigure renders a figure as aligned loss series.
func PrintFigure(w io.Writer, title string, f *FigureResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-42s", "Strategy \\ Budget")
	for _, B := range f.Budgets {
		fmt.Fprintf(w, " %8.0f", B)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-42s", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(w, " %8.2f", v)
		}
		fmt.Fprintln(w)
	}
}
