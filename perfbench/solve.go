package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"auditgame"
)

// solveItem is one pre-generated input of a solve workload: a game, a
// budget and the session configuration to solve it with.
type solveItem struct {
	name   string
	game   *auditgame.Game
	budget float64
	cfg    auditgame.AuditorConfig // Instance is filled per op
	// check, when set, validates an op's outcome against pinned goldens.
	check func(loss float64, counts map[string]int) error
	// rows are count vectors drawn from the game's model for the select
	// probe.
	rows [][]int
}

// opCounters are the exact per-op work counts the program exposes.
var opCounters = []string{
	"solver.columns", "solver.master_solves", "lp.pivots", "solver.pal_evals",
	"solver.prefix_hits", "solver.pruned", "solver.ishm_evaluations", "solver.grid_points",
}

// solveSpec describes a closed-loop solve workload.
type solveSpec struct {
	// setup builds the workload's items once; it runs setupReps times
	// and the last build is kept. build reports the game-generation
	// part of the set-up time.
	setup     func() (items []solveItem, build time.Duration, err error)
	setupReps int
	// selectBatches is how many batches of selections the select probe
	// serves from each solved policy.
	selectBatches int
}

// runSolveWorkload drives back-to-back cold solves, one caller, cycling
// through the items in a seeded order until the measured time is up
// (whole cycles only). The solves run on one P, and each set-up and op
// is pinned to one CPU, rotating over the allowed CPUs (see cpuRotor):
// on a small shared host a second worker mostly waits on other tenants'
// load, and the CPU a run landed on set its times. Each set-up starts
// from a collected heap. On a traced run the cycles that start after
// half the measured time (at least one) run under the CPU profiler, and
// the layer probes run afterwards.
func runSolveWorkload(o options, rep *report, spec solveSpec) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer rotor.release()
	var setups, builds []float64
	var setupSlots []int
	var items []solveItem
	for i := 0; i < spec.setupReps; i++ {
		setupSlots = append(setupSlots, rotor.pin(i))
		runtime.GC()
		t0 := time.Now()
		it, build, err := spec.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
		items = it
	}
	rep.set("setup_s", slotMedian(setups, setupSlots), len(setups))

	rng := rand.New(rand.NewSource(o.seed))
	ctx := context.Background()
	var (
		opTimes, instTimes, selLat []float64
		opItems, opSlots, selSlots []int
		selTotal                   time.Duration
		tracedFrom                 = -1
		prof                       *cpuProfile
		firstCounts                = make([]map[string]int, len(items))
		losses                     = make([]float64, len(items))
		spans                      = map[string]float64{}
		lastAud                    *auditgame.Auditor
		lastItem                   int
	)
	mem := newAllocMeter()
	start := time.Now()
	for cycle := 0; ; cycle++ {
		elapsed := time.Since(start).Seconds()
		if cycle > 0 && elapsed >= o.seconds && (!o.trace || prof != nil) {
			break
		}
		if o.trace && prof == nil && cycle > 0 && elapsed >= o.seconds/2 {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
			tracedFrom = len(opTimes)
		}
		for _, idx := range rng.Perm(len(items)) {
			it := items[idx]
			rep.attempted++
			// Each item alternates CPUs from cycle to cycle.
			slot := rotor.pin(cycle + idx)
			var (
				in     *auditgame.Instance
				res    *auditgame.SolveResult
				aud    *auditgame.Auditor
				tInst  time.Duration
				tTotal time.Duration
			)
			err := mem.around(func() error {
				t0 := time.Now()
				var err error
				if in, err = auditgame.NewInstance(it.game, it.budget, auditgame.SourceOptions{}); err != nil {
					return err
				}
				tInst = time.Since(t0)
				cfg := it.cfg
				cfg.Instance = in
				if aud, err = auditgame.NewAuditor(cfg); err != nil {
					return err
				}
				res, err = aud.SolveDetailed(ctx)
				tTotal = time.Since(t0)
				return err
			})
			if err != nil {
				rep.failed++
				return fmt.Errorf("%s: %w", it.name, err)
			}
			opTimes = append(opTimes, tTotal.Seconds())
			opItems = append(opItems, idx)
			opSlots = append(opSlots, slot)
			instTimes = append(instTimes, tInst.Seconds())
			spanSums(spans, res.Trace)

			counts := solveCounts(res, in)
			if firstCounts[idx] == nil {
				firstCounts[idx] = counts
				losses[idx] = auditgame.Loss(in, res.Mixed)
				if it.check != nil {
					if err := it.check(res.Mixed.Objective, counts); err != nil {
						rep.fail("%s: %v", it.name, err)
					}
				}
			} else if !sameCounts(firstCounts[idx], counts) {
				rep.fail("%s: exact counters changed between ops: %v then %v", it.name, firstCounts[idx], counts)
			}

			d, err := selectProbe(aud, it.rows, spec.selectBatches, &selLat)
			if err != nil {
				rep.failed++
				return fmt.Errorf("%s: %w", it.name, err)
			}
			selTotal += d
			for len(selSlots) < len(selLat) {
				selSlots = append(selSlots, slot)
			}
			lastAud, lastItem = aud, idx
		}
	}
	rotor.release()
	if prof != nil {
		shares, n, err := prof.stopAndAttribute()
		if err != nil {
			return err
		}
		for k, v := range shares {
			rep.setLayer(k, v, n)
		}
	}

	// Items differ in size and the host's speed drifts, so each item's
	// solve time is its median over the run (per CPU, see slotMedian),
	// and solve_p50_s is the mean of those over the items.
	perItem := make([][]float64, len(items))
	perItemSlots := make([][]int, len(items))
	for i, t := range opTimes {
		perItem[opItems[i]] = append(perItem[opItems[i]], t)
		perItemSlots[opItems[i]] = append(perItemSlots[opItems[i]], opSlots[i])
	}
	var itemMedians []float64
	for i, ts := range perItem {
		itemMedians = append(itemMedians, slotMedian(ts, perItemSlots[i]))
	}
	rep.set("solve_p50_s", mean(itemMedians), len(opTimes))
	rep.set("solves_per_s", float64(len(opTimes))/sum(opTimes), len(opTimes))
	rep.set("policy_loss", mean(losses), len(losses))
	rep.set("select_p50_ms", slotMedian(selLat, selSlots), len(selLat)*selectBatch)
	rep.set("select_max_rps", float64(len(selLat)*selectBatch)/selTotal.Seconds(), len(selLat)*selectBatch)
	rep.setLayer("select_p99_ms", quantile(selLat, 0.99), len(selLat)*selectBatch)

	if !o.trace {
		return nil
	}
	rep.setLayer("trace_overhead", mean(opTimes[tracedFrom:])/mean(opTimes[:tracedFrom]), len(opTimes))
	rep.setLayer("workload.build_s", median(builds), len(builds))
	rep.setLayer("game.instance_s", median(instTimes), len(instTimes))
	mem.report(rep)
	for _, name := range opCounters {
		var total float64
		for _, c := range firstCounts {
			total += float64(c[name])
		}
		rep.setLayer(name, total/float64(len(items)), len(items))
	}
	reportPruneRatio(rep, len(items))
	reportSpans(rep, spans, len(opTimes))
	if err := layerProbes(rep, lastAud, items[lastItem].game, items[lastItem].rows, ""); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	zeroLayers(rep, servePathLayers...)
	return nil
}

// reportPruneRatio sets solver.prune_ratio from the pruned and
// prefix-priced counts already reported.
func reportPruneRatio(rep *report, n int) {
	ratio := 0.0
	if den := rep.layer["solver.pruned"] + rep.layer["solver.prefix_hits"]; den > 0 {
		ratio = rep.layer["solver.pruned"] / den
	}
	rep.setLayer("solver.prune_ratio", ratio, n)
}

// servePathLayers are the serve-mixed layers syna-paper bypasses.
var servePathLayers = []string{
	"serve.server_select_p99_ms", "serve.job_wait_ms", "serve.rejected_429",
	"refit.fires", "refit.installed", "refit.gated", "refit.install_ratio",
	"solver.columns_reused", "solver.columns_parked",
	"observe_p99_ms", "refit_s", "drift_detect_periods", "drift_false_fires", "error_rate",
	"loadgen.lag_p99_ms", "loadgen.sent", "loadgen.failed", "loadgen.backlog_max",
	"serve.ladder_rps",
}

// solveCounts collects the exact work counts a solve exposes. The pal
// evaluations come from the instance when the caller holds it, else
// from the column-generation stats.
func solveCounts(res *auditgame.SolveResult, in *auditgame.Instance) map[string]int {
	c := map[string]int{}
	if in != nil {
		c["solver.pal_evals"] = in.PalEvals()
	} else if res.Stats != nil {
		c["solver.pal_evals"] = res.Stats.PalEvals
	}
	if s := res.Stats; s != nil {
		c["solver.columns"] = s.Columns
		c["solver.master_solves"] = s.MasterSolves
		c["lp.pivots"] = s.Pivots
		c["solver.prefix_hits"] = s.PrefixHits
		c["solver.pruned"] = s.PrunedCandidates
	}
	if res.ISHM != nil {
		c["solver.ishm_evaluations"] = res.ISHM.Evaluations
	}
	if res.BruteForce != nil {
		c["solver.grid_points"] = res.BruteForce.Explored
	}
	return c
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// checkGolden compares a loss and pinned counts with their goldens.
func checkGolden(loss, want float64, counts map[string]int, wantCounts map[string]int) error {
	if math.Abs(loss-want) > 1e-9 {
		return fmt.Errorf("loss %.12f, golden %.12f", loss, want)
	}
	for k, v := range wantCounts {
		if counts[k] != v {
			return fmt.Errorf("%s = %d, golden %d", k, counts[k], v)
		}
	}
	return nil
}
