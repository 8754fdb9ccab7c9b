package solver

import (
	"context"
	"math"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
)

func TestISHMParallelMatchesSerial(t *testing.T) {
	for _, budget := range []float64{2, 3, 5} {
		serialIn := testInstance(t, budget)
		parallelIn := testInstance(t, budget)
		serial, err := ISHM(context.Background(), serialIn, ISHMOptions{
			Epsilon: 0.2, Inner: ExactInner, EvaluateInitial: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := ISHM(context.Background(), parallelIn, ISHMOptions{
			Epsilon: 0.2, Inner: ExactInner, EvaluateInitial: true, Workers: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(serial.Policy.Objective-parallel.Policy.Objective) > 1e-9 {
			t.Fatalf("B=%v: serial %v vs parallel %v", budget,
				serial.Policy.Objective, parallel.Policy.Objective)
		}
		if serial.Policy.Thresholds.Key() != parallel.Policy.Thresholds.Key() {
			t.Fatalf("B=%v: thresholds diverged: %v vs %v", budget,
				serial.Policy.Thresholds, parallel.Policy.Thresholds)
		}
		if serial.Evaluations != parallel.Evaluations {
			t.Fatalf("B=%v: evaluation counts diverged: %d vs %d", budget,
				serial.Evaluations, parallel.Evaluations)
		}
	}
}

func TestInstancePalConcurrentSafety(t *testing.T) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, 6, src)
	if err != nil {
		t.Fatal(err)
	}
	orderings := game.AllOrderings(4)
	done := make(chan []float64, 32)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 4; i++ {
				o := orderings[(w+i)%len(orderings)]
				done <- in.Pal(o, game.Thresholds{2, 2, 2, 2})
			}
		}(w)
	}
	var first []float64
	for i := 0; i < 32; i++ {
		pal := <-done
		for _, p := range pal {
			if p < 0 || p > 1 {
				t.Fatalf("corrupt pal under concurrency: %v", pal)
			}
		}
		if first == nil {
			first = pal
		}
	}
}

// TestCGGSDeterministicAcrossWorkers: the column-generation loop runs on
// the batched Pal engine; its trajectory (columns generated, LP pivots,
// final mixture) must be bit-for-bit reproducible whether detection
// probabilities are computed serially or sharded across workers.
func TestCGGSDeterministicAcrossWorkers(t *testing.T) {
	b := game.Thresholds{2, 2, 2}
	var ref *MixedPolicy
	for _, workers := range []int{1, 4, 8} {
		in := testInstance(t, 4)
		in.Workers = workers
		pol, err := CGGS(context.Background(), in, b, CGGSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pol
			continue
		}
		if pol.Objective != ref.Objective {
			t.Fatalf("workers=%d: objective %v != serial %v", workers, pol.Objective, ref.Objective)
		}
		if len(pol.Q) != len(ref.Q) {
			t.Fatalf("workers=%d: generated %d columns, serial generated %d", workers, len(pol.Q), len(ref.Q))
		}
		for i := range pol.Q {
			if pol.Q[i].Key() != ref.Q[i].Key() || pol.Po[i] != ref.Po[i] {
				t.Fatalf("workers=%d: column %d diverged: %v@%v vs %v@%v",
					workers, i, pol.Q[i], pol.Po[i], ref.Q[i], ref.Po[i])
			}
		}
	}
}

// TestISHMDeterministicAcrossWorkers runs the full ISHM search at several
// worker counts for both the combo loop and the Pal engine, and demands
// identical trajectories — same thresholds, objective, and evaluation
// accounting.
func TestISHMDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		obj    float64
		thr    string
		evals  int
		unique int
	}
	var ref *outcome
	for _, workers := range []int{1, 4, 8} {
		in := testInstance(t, 3)
		in.Workers = workers
		res, err := ISHM(context.Background(), in, ISHMOptions{
			Epsilon: 0.2, Inner: ExactInner, EvaluateInitial: true,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{
			obj:    res.Policy.Objective,
			thr:    res.Policy.Thresholds.Key(),
			evals:  res.Evaluations,
			unique: res.UniqueEvaluations,
		}
		if ref == nil {
			ref = &got
			continue
		}
		if got != *ref {
			t.Fatalf("workers=%d: %+v != serial %+v", workers, got, *ref)
		}
	}
}

// TestLossParallelSerialIdentical pins the acceptance criterion directly:
// a solved policy evaluated on a serial instance and on a parallel
// instance yields the identical loss, to the last bit.
func TestLossParallelSerialIdentical(t *testing.T) {
	for _, budget := range []float64{2, 4} {
		serial := testInstance(t, budget)
		serial.Workers = 1
		parallel := testInstance(t, budget)
		parallel.Workers = 8
		pol, err := Exact(context.Background(), serial, game.Thresholds{2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		ls := serial.Loss(pol.Q, pol.Po, pol.Thresholds)
		lp := parallel.Loss(pol.Q, pol.Po, pol.Thresholds)
		if ls != lp {
			t.Fatalf("B=%v: serial loss %v != parallel loss %v", budget, ls, lp)
		}
	}
}
