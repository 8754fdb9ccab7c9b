// Command perfbench is the repository's end-to-end benchmark. It drives
// the audit loop only through its public entry points — Auditor,
// NewInstance, Loss, the serve handler on a loopback listener, the drift
// Tracker and Policy.Select — on two workloads:
//
//	syna-paper   cold Syn A solves cycling through the paper's Table III–V cells
//	serve-mixed  open-loop selects plus an observe stream with a drift step,
//	             then cold CGGS solves of the served scaled game and a select
//	             rate ladder, against an in-process server
//
// Every run checks the program's outputs (golden losses, exact counters
// repeating, select responses valid) and prints, as its last stdout
// line, one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// also takes a CPU profile and times each layer from outside, and the
// metrics are the per-layer ones. A failed check reports no metrics and
// exits non-zero.
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// options are the runner's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// defaultSeed is the seed the workload goldens are pinned at.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_p50_s", "s"},
	{"solves_per_s", "1/s"},
	{"policy_loss", "loss"},
	{"peak_rss_mb", "MB"},
	{"select_p50_ms", "ms"},
	{"select_max_rps", "req/s"},
}

// perLayer lists the layer metrics a traced run reports. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"game.instance_s", "s"},
	{"cpu.lp_build", "share"},
	{"cpu.lp_simplex", "share"},
	{"cpu.lp_warm_install", "share"},
	{"cpu.game_pal_kernel", "share"},
	{"cpu.game_sigkey", "share"},
	{"cpu.runtime_alloc_gc", "share"},
	{"cpu.http_json", "share"},
	{"solver.columns", "count"},
	{"solver.master_solves", "count"},
	{"lp.pivots", "count"},
	{"solver.pal_evals", "count"},
	{"solver.prefix_hits", "count"},
	{"solver.pruned", "count"},
	{"solver.prune_ratio", "ratio"},
	{"solver.ishm_evaluations", "count"},
	{"solver.grid_points", "count"},
	{"alloc_mb_per_solve", "MB"},
	{"allocs_per_solve", "count"},
	{"gc_cpu_share", "share"},
	{"span.cggs.master_s", "s"},
	{"span.cggs.price_s", "s"},
	{"span.cggs.warm_screen_s", "s"},
	{"span.refit.snapshot_s", "s"},
	{"span.refit.model_s", "s"},
	{"span.refit.gate_s", "s"},
	{"span.install_s", "s"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"auditgame.select_us", "us"},
	{"auditgame.select_allocs", "count"},
	{"policy.select_us", "us"},
	{"http.transport_us", "us"},
	{"serve.server_select_p99_ms", "ms"},
	{"serve.job_wait_ms", "ms"},
	{"serve.rejected_429", "count"},
	{"refit.observe_us", "us"},
	{"refit.fires", "count"},
	{"refit.installed", "count"},
	{"refit.gated", "count"},
	{"refit.install_ratio", "ratio"},
	{"solver.columns_reused", "count"},
	{"solver.columns_parked", "count"},
	{"observe_p99_ms", "ms"},
	{"refit_s", "s"},
	{"drift_detect_periods", "periods"},
	{"drift_false_fires", "count"},
	{"error_rate", "ratio"},
	{"select_p99_ms", "ms"},
	{"serve.ladder_rps", "req/s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.backlog_max", "count"},
	{"trace_overhead", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"syna-paper":  runSynaPaper,
	"serve-mixed": runServeMixed,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: syna-paper, serve-mixed, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the goldens are pinned at the default")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have syna-paper, serve-mixed, all)\n", o.workload)
		os.Exit(2)
	}
	os.Exit(runOne(o, run))
}

// runOne runs one workload and prints its result. It returns the exit
// code: 0 when every check passed and every metric was measured.
func runOne(o options, run func(options, *report) error) int {
	rep := newReport()
	err := run(o, rep)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.n["peak_rss_mb"] = 1

	defs, vals := endToEnd, rep.e2e
	if o.trace {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		if _, ok := vals[d.name]; !ok {
			rep.fail("metric %s was not measured", d.name)
		}
	}

	printProvenance(o)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	if res.Correct {
		for _, d := range defs {
			fmt.Printf("%-28s %14.6g %-7s n=%d\n", d.name, vals[d.name], d.unit, rep.n[d.name])
			res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process so peak RSS stays
// per workload, and prints each workload's metrics with their sample
// counts, then one combined result line.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		fmt.Printf("== %s\n", name)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", name, err)
			all.Correct = false
			code = 1
			continue
		}
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		all.Correct = all.Correct && r.Correct
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return code
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's measurements and check failures.
type report struct {
	e2e, layer map[string]float64
	// n is the sample count behind each metric.
	n                 map[string]int
	attempted, failed int
	problems          []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, n: map[string]int{}}
}

// fail records a failed correctness check; the run then reports no
// metrics.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records an end-to-end metric with its sample count.
func (r *report) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.n[name] = n
}

// setLayer records a per-layer metric with its sample count.
func (r *report) setLayer(name string, v float64, n int) {
	r.layer[name] = v
	r.n[name] = n
}
