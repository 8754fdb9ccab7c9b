package game

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"auditgame/internal/fault"
	"auditgame/internal/sample"
)

// synAEngineInstance builds a Syn A instance with the given worker
// setting; the engine guarantees bitwise-identical results at every
// setting, which these tests pin down.
func synAEngineInstance(t *testing.T, budget float64, workers int) *Instance {
	t.Helper()
	g := SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = workers
	return in
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// engineCases enumerates a mix of full and partial orderings with
// assorted thresholds — enough shapes to exercise caps, partial budgets,
// and the early-exit path.
func engineCases() ([]Ordering, []Thresholds) {
	os := AllOrderings(4)
	os = append(os, Ordering{2}, Ordering{3, 1}, Ordering{0, 2, 1})
	bs := []Thresholds{
		{3, 3, 3, 3},
		{2, 4, 1, 5},
		{0, 0, 7, 7},
		{11, 9, 7, 7},
		{1, 0, 0, 1},
	}
	return os, bs
}

// TestPalBatchMatchesPal: the batched kernel must agree with one-at-a-time
// evaluation to the bit, computed fresh on separate instances.
func TestPalBatchMatchesPal(t *testing.T) {
	os, bs := engineCases()
	one := synAEngineInstance(t, 10, 1)
	batched := synAEngineInstance(t, 10, 1)
	for _, b := range bs {
		got := batched.PalBatch(os, b)
		for k, o := range os {
			want := one.Pal(o, b)
			if !bitsEqual(got[k], want) {
				t.Fatalf("b=%v o=%v: batch %v != single %v", b, o, got[k], want)
			}
		}
	}
}

// TestPalParallelBitwiseIdentical: realization sharding across workers
// must not change a single bit versus the serial path, for Pal, PalBatch
// and Loss.
func TestPalParallelBitwiseIdentical(t *testing.T) {
	os, bs := engineCases()
	serial := synAEngineInstance(t, 10, 1)
	parallel := synAEngineInstance(t, 10, 8)
	for _, b := range bs {
		sp := serial.PalBatch(os, b)
		pp := parallel.PalBatch(os, b)
		for k := range os {
			if !bitsEqual(sp[k], pp[k]) {
				t.Fatalf("b=%v o=%v: serial %v != parallel %v", b, os[k], sp[k], pp[k])
			}
		}
	}
	full := AllOrderings(4)
	po := make([]float64, len(full))
	for i := range po {
		po[i] = 1 / float64(len(full))
	}
	for _, b := range bs {
		ls := serial.Loss(full, po, b)
		lp := parallel.Loss(full, po, b)
		if ls != lp {
			t.Fatalf("b=%v: serial loss %v != parallel loss %v", b, ls, lp)
		}
	}
}

// TestPalConcurrentHammer drives one shared instance from many goroutines
// mixing Pal, PalBatch and Loss, and checks every result bitwise against
// a serial reference instance. Run under -race this also proves the
// kernel's shared scratch pools and spent-column cache are data-race
// free.
func TestPalConcurrentHammer(t *testing.T) {
	os, bs := engineCases()
	ref := synAEngineInstance(t, 10, 1)
	shared := synAEngineInstance(t, 10, 0)

	full := AllOrderings(4)
	po := make([]float64, len(full))
	for i := range po {
		po[i] = 1 / float64(len(full))
	}
	wantPal := make(map[int][][]float64)
	wantLoss := make([]float64, len(bs))
	for bi, b := range bs {
		wantPal[bi] = ref.PalBatch(os, b)
		wantLoss[bi] = ref.Loss(full, po, b)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 40; iter++ {
				bi := r.Intn(len(bs))
				switch iter % 3 {
				case 0:
					k := r.Intn(len(os))
					if got := shared.Pal(os[k], bs[bi]); !bitsEqual(got, wantPal[bi][k]) {
						t.Errorf("goroutine %d: Pal(%v,%v) = %v, want %v", g, os[k], bs[bi], got, wantPal[bi][k])
						return
					}
				case 1:
					got := shared.PalBatch(os, bs[bi])
					for k := range os {
						if !bitsEqual(got[k], wantPal[bi][k]) {
							t.Errorf("goroutine %d: PalBatch mismatch at o=%v b=%v", g, os[k], bs[bi])
							return
						}
					}
				case 2:
					if got := shared.Loss(full, po, bs[bi]); got != wantLoss[bi] {
						t.Errorf("goroutine %d: Loss(b=%v) = %v, want %v", g, bs[bi], got, wantLoss[bi])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// weightedSource is a hand-built Source with explicit (possibly
// duplicated) realizations for the dedup tests.
type weightedSource struct {
	rows []sample.Realization
	ws   []float64
}

func (s *weightedSource) Each(fn func(z sample.Realization, w float64)) {
	for i, z := range s.rows {
		fn(z, s.ws[i])
	}
}

func (s *weightedSource) Size() int { return len(s.rows) }

// TestRealizationDedup: duplicate rows must merge their weights at
// NewInstance time, and Pal over the merged matrix must match the
// expectation computed from the duplicated source by hand.
func TestRealizationDedup(t *testing.T) {
	g := tinyGame()
	// Powers of two keep the merged weights bitwise-exact, so the pal
	// comparison below can demand bit equality rather than a tolerance.
	dup := &weightedSource{
		rows: []sample.Realization{{2, 2}, {1, 3}, {2, 2}, {2, 2}},
		ws:   []float64{0.25, 0.5, 0.125, 0.125},
	}
	in, err := NewInstance(g, 3, dup)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumRealizations() != 2 {
		t.Fatalf("NumRealizations = %d, want 2 after dedup", in.NumRealizations())
	}
	merged := &weightedSource{
		rows: []sample.Realization{{2, 2}, {1, 3}},
		ws:   []float64{0.5, 0.5},
	}
	in2, err := NewInstance(g, 3, merged)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range [][]int{{0, 1}, {1, 0}, {1}} {
		got := in.Pal(Ordering(o), Thresholds{2, 2})
		want := in2.Pal(Ordering(o), Thresholds{2, 2})
		if !bitsEqual(got, want) {
			t.Fatalf("o=%v: deduped pal %v != merged-source pal %v", o, got, want)
		}
	}
}

// TestPalEvalCounting: every evaluation counts one eval per ordering,
// repeats included — the Table VII accounting contract.
func TestPalEvalCounting(t *testing.T) {
	in := synAEngineInstance(t, 10, 1)
	os := AllOrderings(4)
	b := Thresholds{3, 3, 3, 3}
	in.PalBatch(os, b)
	if got := in.PalEvals(); got != len(os) {
		t.Fatalf("PalEvals = %d after batch of %d, want %d", got, len(os), len(os))
	}
	in.PalBatch(os, b)
	in.Pal(os[0], b)
	if got, want := in.PalEvals(), 2*len(os)+1; got != want {
		t.Fatalf("PalEvals = %d after repeated evaluations, want %d", got, want)
	}
}

// TestPalRunContainsWorkerPanic drives each kernel walk through the
// parallel branch of the shared worker pool and fires one PalWorker
// panic mid-call. The panic must reach the caller, every worker must
// exit, and the next fault-free call must return the same bits as
// before the fault.
func TestPalRunContainsWorkerPanic(t *testing.T) {
	g := trieTestGame(5, 7)
	in, err := NewInstance(g, 12, sample.NewBank(g.Dists(), 8000, 7))
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = 4
	defer fault.Disable()
	os := AllOrderings(5)
	b := Thresholds{3, 2, 4, 1, 3}
	steps := []int{2, 2, 1, 1, 1}
	cands := []int{0, 1, 2, 3, 4}
	nRows, nChunks := in.NumRealizations(), in.numChunks()

	kernels := []struct {
		name        string
		units, work int
		run         func() [][]float64
	}{
		{"PalBatch", nChunks * 5, nRows * len(os), func() [][]float64 {
			return in.PalBatch(os, b)
		}},
		{"PalGridSweep", 5, nRows * len(os), func() [][]float64 {
			return in.PalGridSweep(os, steps).Pals([]int{1, 2, 0, 1, 1})
		}},
		{"ExtendDeltas", nChunks * (len(cands) - 1), nRows * (len(cands) - 1), func() [][]float64 {
			pp, err := NewPrefixPricer(in, b)
			if err != nil {
				t.Fatal(err)
			}
			pp.Advance(3, pp.ExtendDeltas(cands)[3])
			return [][]float64{pp.ExtendDeltas([]int{0, 1, 2, 4})}
		}},
	}
	for _, k := range kernels {
		if k.work < palParallelMinWork || in.workerCount(k.units, k.work) < 2 {
			t.Fatalf("%s: %d units of work %d stay serial; the test needs the parallel pool", k.name, k.units, k.work)
		}
		want := k.run()
		base := runtime.NumGoroutine()

		fault.Enable(fault.Plan{Rules: []fault.Rule{
			{Point: fault.PalWorker, Mode: fault.ModePanic, Prob: 1, After: 2, MaxFires: 1},
		}})
		var got any
		func() {
			defer func() { got = recover() }()
			k.run()
		}()
		fired := fault.Snapshot()[fault.PalWorker].Fires
		fault.Disable()
		if p, ok := got.(*fault.Panic); !ok || p.Point != fault.PalWorker || fired != 1 {
			t.Fatalf("%s: caller recovered %v (%d firings), want one PalWorker panic", k.name, got, fired)
		}

		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the contained panic, %d before", k.name, n, base)
		}

		again := k.run()
		for i := range want {
			if !bitsEqual(again[i], want[i]) {
				t.Fatalf("%s: row %d after the contained panic = %v, before = %v", k.name, i, again[i], want[i])
			}
		}
	}
}
