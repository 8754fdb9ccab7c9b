package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
)

// exactLayers are the traced metrics that must repeat exactly across
// runs of the same seed.
var exactLayers = []string{
	"solver.columns", "solver.master_solves", "lp.pivots", "solver.pal_evals",
	"solver.prefix_hits", "solver.pruned", "solver.ishm_evaluations", "solver.grid_points",
}

// runTwice runs a workload twice at a non-default seed and checks that
// every correctness check passed, every metric was measured, and the
// exact counters and the loss repeat between the runs.
func runTwice(t *testing.T, name string, seconds float64, trace bool) [2]*report {
	t.Helper()
	var reps [2]*report
	for i := range reps {
		o := options{workload: name, seed: 7, seconds: seconds, trace: trace}
		rep := newReport()
		if err := workloads[name](o, rep); err != nil {
			t.Fatalf("%s run %d: %v", name, i, err)
		}
		if len(rep.problems) > 0 {
			t.Fatalf("%s run %d: checks failed: %v", name, i, rep.problems)
		}
		if rep.attempted == 0 || rep.failed != 0 {
			t.Fatalf("%s run %d: attempted %d, failed %d", name, i, rep.attempted, rep.failed)
		}
		defs, vals := endToEnd, rep.e2e
		if trace {
			defs, vals = perLayer, rep.layer
		}
		for _, d := range defs {
			if d.name == "peak_rss_mb" {
				continue // set by runOne
			}
			if _, ok := vals[d.name]; !ok {
				t.Errorf("%s run %d: metric %s not measured", name, i, d.name)
			}
		}
		reps[i] = rep
	}
	return reps
}

func TestSynaPaperRepeatsAtOtherSeed(t *testing.T) {
	reps := runTwice(t, "syna-paper", 2, true)
	for _, m := range exactLayers {
		if a, b := reps[0].layer[m], reps[1].layer[m]; a != b {
			t.Errorf("%s changed between runs: %v then %v", m, a, b)
		}
	}
	if reps[0].layer["solver.grid_points"] == 0 || reps[0].layer["solver.ishm_evaluations"] == 0 {
		t.Errorf("syna-paper reported no search work: %v", reps[0].layer)
	}
}

func TestServeMixedAtOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("serve-mixed runs the full drift scenario")
	}
	reps := runTwice(t, "serve-mixed", 8, true)
	for i, rep := range reps {
		if rep.layer["refit.fires"] < 1 || rep.layer["refit.installed"] < 1 {
			t.Errorf("run %d: no installed refit: %v fires, %v installed", i, rep.layer["refit.fires"], rep.layer["refit.installed"])
		}
		if rep.layer["loadgen.sent"] == 0 || rep.layer["error_rate"] != 0 {
			t.Errorf("run %d: sent %v selects at error rate %v", i, rep.layer["loadgen.sent"], rep.layer["error_rate"])
		}
	}
}

func TestCheckSelectionRejects(t *testing.T) {
	counts := []int{3, 0, 2}
	cases := []struct {
		name     string
		ordering []int
		chosen   [][]int
		spent    float64
	}{
		{"not a permutation", []int{0, 0, 2}, [][]int{{0}, nil, nil}, 1},
		{"wrong length", []int{0, 1}, [][]int{{0}, nil, nil}, 1},
		{"more chosen than alerts", []int{0, 1, 2}, [][]int{{0}, {0}, nil}, 1},
		{"index out of bin", []int{0, 1, 2}, [][]int{{3}, nil, nil}, 1},
		{"unsorted", []int{0, 1, 2}, [][]int{{2, 1}, nil, nil}, 1},
		{"over budget", []int{0, 1, 2}, [][]int{{0}, nil, {0, 1}}, 10.5},
	}
	for _, c := range cases {
		if err := checkSelection(c.ordering, c.chosen, c.spent, counts, 10); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := checkSelection([]int{2, 0, 1}, [][]int{{0, 2}, nil, {1}}, 3, counts, 10); err != nil {
		t.Errorf("valid selection rejected: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

//go:noinline
func spin(n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Sqrt(float64(i))
	}
	return s
}

func TestProfileParse(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink := 0.0
	for i := 0; i < 40; i++ {
		sink += spin(1 << 20)
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		for _, f := range s.funcs {
			found = found || strings.HasSuffix(f, ".spin")
		}
		if s.weight <= 0 {
			t.Fatalf("sample without CPU time: %+v", s)
		}
	}
	if !found && sink > 0 {
		t.Errorf("profile of %d samples never saw spin", len(stacks))
	}
}

func TestClassify(t *testing.T) {
	cases := map[string][]string{
		"cpu.lp_simplex":       {"auditgame/internal/lp.(*tableau).pivot", "auditgame/internal/lp.(*standard).simplex"},
		"cpu.lp_warm_install":  {"auditgame/internal/lp.(*tableau).warmInstall"},
		"cpu.lp_build":         {"runtime.mapassign_fast64", "auditgame/internal/game.(*Instance).solveFixedFromPals"},
		"cpu.game_sigkey":      {"fmt.(*pp).doPrintf", "auditgame/internal/game.sigKey"},
		"cpu.game_pal_kernel":  {"auditgame/internal/game.(*Instance).palTrieChunk"},
		"cpu.runtime_alloc_gc": {"runtime.memclrNoHeapPointers", "runtime.mallocgc", "auditgame/internal/lp.(*Problem).AddRow"},
		"":                     {"main.main"},
	}
	for want, stack := range cases {
		if got := classify(stack); got != want {
			t.Errorf("classify(%v) = %q, want %q", stack, got, want)
		}
	}
}
