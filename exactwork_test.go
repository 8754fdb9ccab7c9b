package auditgame

import (
	"context"
	"math"
	"testing"
)

// TestMasterExactWork pins the exact work of cold column-generation
// solves: the objective and every deterministic counter, pivots
// included. Any change to how the restricted master is built or pivoted
// shows up here as a changed count, not just as a changed loss.
func TestMasterExactWork(t *testing.T) {
	cases := []struct {
		name string
		cfg  AuditorConfig
		loss float64
		want CGGSStats
	}{
		{
			// The served scaled game: 2000 entities over 24 alert types
			// on a 512-realization bank.
			name: "scaled",
			cfg: AuditorConfig{
				Workload:       "scaled",
				Scale:          WorkloadScale{Entities: 2000, AlertTypes: 24, Seed: 1},
				BudgetFraction: 0.1,
				Source:         SourceOptions{BankSize: 512, Seed: 2},
				Method:         MethodCGGS,
			},
			loss: 12235.382735526318,
			want: CGGSStats{Columns: 20, MasterSolves: 20, Pivots: 1259, PalEvals: 20, PrefixHits: 3474, PrunedCandidates: 2295},
		},
		{
			// The paper's Syn A game at fixed thresholds, exactly
			// enumerated.
			name: "syna",
			cfg: AuditorConfig{
				Workload:   "syna",
				Budget:     4,
				Thresholds: Thresholds{2, 2, 2, 2},
				Method:     MethodCGGS,
			},
			loss: 7.7264260858818279,
			want: CGGSStats{Columns: 5, MasterSolves: 5, Pivots: 45, PalEvals: 5, PrefixHits: 34, PrunedCandidates: 16},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAuditor(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.SolveDetailed(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("loss %.12f stats %+v", res.Mixed.Objective, *res.Stats)
			if math.Abs(res.Mixed.Objective-tc.loss) > 1e-9 {
				t.Errorf("loss = %.12f, want %.12f", res.Mixed.Objective, tc.loss)
			}
			if *res.Stats != tc.want {
				t.Errorf("stats = %+v, want %+v", *res.Stats, tc.want)
			}
		})
	}
}
