package solver

import (
	"context"
	"math"
	"slices"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/game"
	"auditgame/internal/refit"
	"auditgame/internal/sample"
	"auditgame/internal/workload"
)

// driftedGame is testGame with the count model nudged: the empirical
// count tables gain extra mass on one value per type, the kind of shift
// a window snapshot produces. Attack structure is untouched, so the
// instance stays structurally compatible with the original.
func driftedGame() *game.Game {
	g := testGame()
	g.Types[0].Dist = dist.NewEmpirical([]int{1, 2, 2})
	g.Types[1].Dist = dist.NewEmpirical([]int{1, 3, 3})
	g.Types[2].Dist = dist.NewEmpirical([]int{2, 2, 3})
	return g
}

func instanceOf(t *testing.T, g *game.Game, budget float64) *game.Instance {
	t.Helper()
	src, err := sample.NewEnumerator(g.Dists(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// perTypeTV computes the exact per-type total-variation distances
// between two games' count models, as the drift detector would.
func perTypeTV(t *testing.T, a, b *game.Game) []float64 {
	t.Helper()
	tv := make([]float64, len(a.Types))
	for i := range a.Types {
		tv[i] = refit.TotalVariation(a.Types[i].Dist, b.Types[i].Dist)
	}
	return tv
}

func TestSolveStateWarmRefitMatchesColdExactly(t *testing.T) {
	// With the exhaustive oracle both paths are exact, so the warm refit
	// must land on the same optimal loss as a cold solve of the drifted
	// instance to LP tolerance.
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	opts := CGGSOptions{ExhaustiveOracle: true}

	for _, budget := range []float64{1, 2, 3} {
		st := NewSolveState(opts)
		if _, err := st.Solve(ctx, instanceOf(t, testGame(), budget), b); err != nil {
			t.Fatal(err)
		}
		if st.WarmStats().Warm {
			t.Fatal("cold solve reported warm")
		}

		din := instanceOf(t, driftedGame(), budget)
		tv := perTypeTV(t, testGame(), driftedGame())
		warm, err := st.Refit(ctx, din, b, tv)
		if err != nil {
			t.Fatal(err)
		}
		if !st.WarmStats().Warm {
			t.Fatal("compatible refit did not run warm")
		}
		cold, err := CGGS(ctx, instanceOf(t, driftedGame(), budget), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
			t.Fatalf("budget %v: warm refit loss %.12f != cold loss %.12f (|Δ|=%g)",
				budget, warm.Objective, cold.Objective, d)
		}
		// The loss reported by the master must agree with the full
		// best-response evaluation of the returned policy.
		if l := din.Loss(warm.Q, warm.Po, warm.Thresholds); math.Abs(l-warm.Objective) > 1e-7 {
			t.Fatalf("budget %v: warm policy loss %.12f != objective %.12f", budget, l, warm.Objective)
		}
	}
}

func TestSolveStateRefitReusesWork(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	coldRounds := st.Stats().MasterSolves

	din := instanceOf(t, driftedGame(), 2)
	if _, err := st.Refit(ctx, din, b, perTypeTV(t, testGame(), driftedGame())); err != nil {
		t.Fatal(err)
	}
	ws := st.WarmStats()
	if !ws.Warm {
		t.Fatal("refit did not run warm")
	}
	if ws.ColumnsReused == 0 {
		t.Fatal("warm refit reused no columns")
	}
	if ws.PricingRounds >= coldRounds && coldRounds > 2 {
		t.Fatalf("warm refit took %d pricing rounds, cold solve took %d", ws.PricingRounds, coldRounds)
	}
}

func TestSolveStateStructuralChangeFallsBackCold(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}

	// Budget change is structural: the fingerprint differs, Refit must
	// solve cold.
	if _, err := st.Refit(ctx, instanceOf(t, testGame(), 3), b, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("budget change still ran warm")
	}

	// Threshold change is structural too.
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Refit(ctx, instanceOf(t, testGame(), 2), game.Thresholds{1, 2, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("threshold change still ran warm")
	}

	// Attack change (entity classes differ) is structural.
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	g := testGame()
	g.Attacks[0][0].Benefit = 9.9
	if _, err := st.Refit(ctx, instanceOf(t, g, 2), b, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("attack change still ran warm")
	}
}

func TestSolveStateNilTVRunsWarmUnscreened(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	pool := st.Columns()
	if _, err := st.Refit(ctx, instanceOf(t, driftedGame(), 2), b, nil); err != nil {
		t.Fatal(err)
	}
	ws := st.WarmStats()
	if !ws.Warm {
		t.Fatal("nil-TV refit did not run warm")
	}
	if ws.ColumnsParked != 0 {
		t.Fatalf("nil TV must disable screening, but %d columns were parked", ws.ColumnsParked)
	}
	if ws.ColumnsReused != pool {
		t.Fatalf("reused %d columns, pool had %d", ws.ColumnsReused, pool)
	}
}

func TestSolveStateRepeatedRefitsStayBounded(t *testing.T) {
	// Alternate between two models for many refits: the pool must stay
	// under its cap and every solve must stay exact-equivalent.
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	opts := CGGSOptions{ExhaustiveOracle: true}
	st := NewSolveState(opts)
	games := []*game.Game{testGame(), driftedGame()}
	if _, err := st.Solve(ctx, instanceOf(t, games[0], 2), b); err != nil {
		t.Fatal(err)
	}
	cap := 2 * (20*3 + 50)
	for i := 1; i <= 6; i++ {
		g := games[i%2]
		in := instanceOf(t, g, 2)
		warm, err := st.Refit(ctx, in, b, perTypeTV(t, games[(i+1)%2], g))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := CGGS(ctx, instanceOf(t, g, 2), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
			t.Fatalf("refit %d: warm %.12f != cold %.12f", i, warm.Objective, cold.Objective)
		}
		if st.Columns() > cap {
			t.Fatalf("refit %d: pool grew to %d (> cap %d)", i, st.Columns(), cap)
		}
	}
}

// TestSolveStatePoolVectorsMatchKernel pins the per-pool-column vectors
// the state keeps for PolicyLoss: after a solve there is one per pool
// column, bitwise equal to the kernel's — also when a refit stops at
// the column cap before the termination net priced the parked columns,
// and when the pool is cut to its cap.
func TestSolveStatePoolVectorsMatchKernel(t *testing.T) {
	ctx := context.Background()
	sc := workload.Scale{Entities: 400, AlertTypes: 24, Seed: 7}
	check := func(stage string, st *SolveState, in *game.Instance, b game.Thresholds) {
		t.Helper()
		if len(st.pals) != len(st.pool) {
			t.Fatalf("%s: %d pool vectors for %d pool columns", stage, len(st.pals), len(st.pool))
		}
		for j, o := range st.pool {
			if want := in.Pal(o, b); !slices.Equal(st.pals[j], want) {
				t.Fatalf("%s: pool column %v has vector %v, kernel %v", stage, o, st.pals[j], want)
			}
		}
	}

	in, b := oracleTestInstance(t, "scaled", sc, 1500)
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, in, b); err != nil {
		t.Fatal(err)
	}
	check("cold solve", st, in, b)

	// Park every pooled column but the last and cap the master at two
	// columns: the refit ends at the cap, before the termination net
	// prices the parked columns, and the pool is cut to four columns
	// (the master's two and the two best-priced parked ones).
	for i := 0; i < len(st.rc)-1; i++ {
		st.rc[i] = math.Inf(1)
	}
	st.opts.MaxColumns = 2
	rin, _ := oracleTestInstance(t, "scaled", sc, 1500)
	if _, err := st.Refit(ctx, rin, b, make([]float64, len(b))); err != nil {
		t.Fatal(err)
	}
	if ws := st.WarmStats(); ws.ColumnsReused != 1 || ws.ColumnsParked < 2 || ws.ColumnsReevaluated != 0 {
		t.Fatalf("refit warm stats %+v, want one active column and parked columns the termination net never priced", ws)
	}
	if st.Columns() != 4 {
		t.Fatalf("refit kept %d pool columns, want the cap of 4", st.Columns())
	}
	check("capped refit", st, rin, b)
}

// TestSolveStatePolicyLossReusesPool pins the refit gate's scoring: on
// the instance of the state's last solve, a policy over pool columns is
// scored bitwise-equal to Instance.Loss without a kernel call; on any
// other instance, or at other thresholds, its support is evaluated.
func TestSolveStatePolicyLossReusesPool(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	in := instanceOf(t, testGame(), 2)
	st := NewSolveState(CGGSOptions{})
	pol, err := st.Solve(ctx, in, b)
	if err != nil {
		t.Fatal(err)
	}
	want := in.Loss(pol.Q, pol.Po, pol.Thresholds)
	support := 0
	for _, p := range pol.Po {
		if p != 0 {
			support++
		}
	}

	evals := in.PalEvals()
	got, err := st.PolicyLoss(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PolicyLoss = %v, want Loss = %v", got, want)
	}
	if n := in.PalEvals() - evals; n != 0 {
		t.Fatalf("PolicyLoss on the solve's instance evaluated %d orderings, want 0", n)
	}

	other := instanceOf(t, testGame(), 2)
	if got, err := st.PolicyLoss(other, pol); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PolicyLoss on a twin instance = (%v, %v), want %v", got, err, want)
	}
	if n := other.PalEvals(); n != support {
		t.Fatalf("PolicyLoss on a twin instance evaluated %d orderings, want the %d support columns", n, support)
	}

	shifted := *pol
	shifted.Thresholds = game.Thresholds{1, 2, 2}
	evals = in.PalEvals()
	if _, err := st.PolicyLoss(in, &shifted); err != nil {
		t.Fatal(err)
	}
	if n := in.PalEvals() - evals; n != support {
		t.Fatalf("PolicyLoss at other thresholds evaluated %d orderings, want %d", n, support)
	}
}
