package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"auditgame"
	"auditgame/internal/serve"
)

const (
	// The served game: a scaled workload fixed at workload seed 1, so
	// set-up and solve cost do not depend on the run seed; the seed
	// drives the traffic.
	serveTypes    = 24
	serveEntities = 2000
	serveBank     = 512
	serveGameSeed = 1
	// serveSetupReps is how many times a run sets the server up; the
	// last set-up serves.
	serveSetupReps = 12
	// selectRate is the fixed-rate phase's Poisson select rate, about a
	// sixth of the closed-loop ceiling on a 2-core host.
	selectRate = 2000.0
	// ceilingBursts is how many closed-loop bursts measure the ceiling.
	ceilingBursts = 10
	// The observe stream sends one period per request: the first
	// stepPeriod periods come from the game's count model, the rest
	// from the post-step model, where stepTypes' counts double.
	periods    = 120
	stepPeriod = 70
	stepFactor = 2.0
	// The ladder's pass criterion: p99 from the due time within
	// ladderP99MS and a backlog that does not grow.
	ladderP99MS  = 2.0
	ladderStep   = 1.05
	ladderStepS  = 0.35
	phaseAShare  = 0.5
	refitTimeout = 20 * time.Second
	// serveGoldenLoss is the served game's cold CGGS objective.
	serveGoldenLoss = 12235.382735526318
)

// serveGoldenCounts are the served game's cold solve's exact work counts.
var serveGoldenCounts = map[string]int{
	"solver.columns":       20,
	"solver.master_solves": 20,
	"lp.pivots":            1259,
	"solver.pal_evals":     20,
	"solver.prefix_hits":   3474,
	"solver.pruned":        2295,
}

var stepTypes = []int{0, 6, 12, 18}

// serveEnv is one set-up of the serve-mixed server.
type serveEnv struct {
	aud    *auditgame.Auditor
	game   *auditgame.Game
	budget float64
	lb     *loopback
}

func (e *serveEnv) close() { e.lb.close() }

// setupServe builds the game, solves it cold, attaches the drift
// tracker at the server defaults, and starts the server on a loopback
// listener.
func setupServe() (env *serveEnv, build, solve time.Duration, err error) {
	aud, g, res, build, solve, err := coldSolve()
	if err != nil {
		return nil, 0, 0, err
	}
	tr, err := auditgame.NewTracker(g.NumTypes(), serveTrackerConfig())
	if err != nil {
		return nil, 0, 0, err
	}
	if err := aud.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 0.01}); err != nil {
		return nil, 0, 0, err
	}
	srv, err := newServer(aud)
	if err != nil {
		return nil, 0, 0, err
	}
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return nil, 0, 0, err
	}
	return &serveEnv{aud: aud, game: g, budget: res.Policy.Budget, lb: lb}, build, solve, nil
}

// coldSolve binds a session to the served game the way the server's
// command line does, builds the game and solves it cold, timing both.
// Like the solve workloads' solves, it runs on one P.
func coldSolve() (aud *auditgame.Auditor, g *auditgame.Game, res *auditgame.SolveResult, build, solve time.Duration, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	aud, err = auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload:       "scaled",
		Scale:          auditgame.WorkloadScale{Entities: serveEntities, AlertTypes: serveTypes, Seed: serveGameSeed},
		BudgetFraction: 0.1,
		Source:         auditgame.SourceOptions{BankSize: serveBank, Seed: serveGameSeed + 1},
		Method:         auditgame.MethodCGGS,
	})
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	t0 := time.Now()
	if g, err = aud.Game(); err != nil {
		return nil, nil, nil, 0, 0, err
	}
	build = time.Since(t0)
	t1 := time.Now()
	if res, err = aud.SolveDetailed(context.Background()); err != nil {
		return nil, nil, nil, 0, 0, err
	}
	return aud, g, res, build, time.Since(t1), nil
}

// stepModel returns the post-step count model: stepTypes' counts
// scaled by stepFactor (mean and variance), the rest unchanged.
func stepModel(g *auditgame.Game) []auditgame.Distribution {
	out := g.Dists()
	for _, t := range stepTypes {
		lo, hi := out[t].Support()
		var m, m2 float64
		for n := lo; n <= hi; n++ {
			p := out[t].PMF(n)
			m += p * float64(n)
			m2 += p * float64(n) * float64(n)
		}
		sd := math.Sqrt(math.Max(m2-m*m, 1e-9))
		out[t] = auditgame.GaussianCounts(stepFactor*m, math.Sqrt(stepFactor)*sd, 0.995)
	}
	return out
}

// drawCounts draws one period's counts from a model.
func drawCounts(model []auditgame.Distribution, r *rand.Rand) []int {
	c := make([]int, len(model))
	for t, d := range model {
		c[t] = d.Sample(r)
	}
	return c
}

// selectLog is what the load generator's workers record.
type selectLog struct {
	mu        sync.Mutex
	lat, lag  []float64 // ms from release to response; ms release trailed due
	failed    int
	rejected  int
	problems  []string
	firstSeen map[uint64]time.Time // policy version → first response carrying it
}

func newSelectLog() *selectLog { return &selectLog{firstSeen: map[uint64]time.Time{}} }

func (l *selectLog) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// loadgen sends open-loop Poisson selects from at most `workers`
// connections; latency runs from each request's release, so time spent
// waiting for a free connection counts.
type loadgen struct {
	client  *http.Client
	url     string
	rows    [][]int
	bodies  [][]byte
	budget  float64
	workers int
}

// shot is one scheduled select: when it was due, when the generator
// released it to the workers (its timer fires at ~1 ms granularity, so
// release may trail due; that slack is reported as loadgen lag, not as
// server latency), and which count row it sends.
type shot struct {
	due, release time.Time
	row          int
}

// run sends selects at rate for dur and returns the backlog at the end
// of the schedule and its maximum.
func (lg *loadgen) run(rate float64, dur time.Duration, r *rand.Rand, log *selectLog) (endBacklog, maxBacklog int) {
	// The buffer holds every shot a stalled run could release: a send
	// that finds it full is a load-generator failure, not a wait.
	ch := make(chan shot, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg.worker(ch, log)
		}()
	}
	start := time.Now()
	end := start.Add(dur)
	next := start
	for next.Before(end) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		for !next.After(now) && next.Before(end) {
			select {
			case ch <- shot{due: next, release: now, row: r.Intn(len(lg.rows))}:
			default:
				log.problem("load generator backlog overflowed %d requests", cap(ch))
			}
			maxBacklog = max(maxBacklog, len(ch))
			next = next.Add(time.Duration(r.ExpFloat64() / rate * 1e9))
		}
	}
	endBacklog = len(ch)
	close(ch)
	wg.Wait()
	return endBacklog, maxBacklog
}

func (lg *loadgen) worker(ch <-chan shot, log *selectLog) {
	var last uint64
	lat := make([]float64, 0, 4096)
	lag := make([]float64, 0, 4096)
	failed, rejected := 0, 0
	for s := range ch {
		var resp serve.SelectResponse
		err := post(lg.client, lg.url+"/v1/select", lg.bodies[s.row], &resp)
		done := time.Now()
		if err != nil {
			failed++
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
				rejected++
			}
			log.problem("select: %v", err)
			continue
		}
		if err := checkSelection(resp.Ordering, resp.Chosen, resp.Spent, lg.rows[s.row], lg.budget); err != nil {
			failed++
			log.problem("select response: %v", err)
			continue
		}
		if resp.PolicyVersion < last {
			log.problem("policy_version went back from %d to %d", last, resp.PolicyVersion)
		}
		if resp.PolicyVersion != last {
			last = resp.PolicyVersion
			log.mu.Lock()
			if t, ok := log.firstSeen[last]; !ok || done.Before(t) {
				log.firstSeen[last] = done
			}
			log.mu.Unlock()
		}
		lat = append(lat, float64(done.Sub(s.release))/1e6)
		lag = append(lag, float64(s.release.Sub(s.due))/1e6)
	}
	log.mu.Lock()
	log.lat = append(log.lat, lat...)
	log.lag = append(log.lag, lag...)
	log.failed += failed
	log.rejected += rejected
	log.mu.Unlock()
}

// fire is one drift firing seen on the observe stream and what became
// of its refit job.
type fire struct {
	period    int
	resp      time.Time
	job       serve.JobResponse
	waitMS    float64
	jobFailed error
}

// observeStream sends the periods' counts in order, one per period, and
// follows every refit job a firing starts until it finishes.
func observeStream(env *serveEnv, client *http.Client, period time.Duration, r *rand.Rand) (lat []float64, fires []*fire, err error) {
	base := env.game.Dists()
	stepped := stepModel(env.game)
	var followers sync.WaitGroup
	defer followers.Wait()
	start := time.Now()
	for p := 0; p < periods; p++ {
		due := start.Add(time.Duration(p) * period)
		time.Sleep(time.Until(due))
		model := base
		if p >= stepPeriod {
			model = stepped
		}
		body, _ := json.Marshal(serve.ObserveRequest{Counts: drawCounts(model, r)}) // ints only: cannot fail
		var resp serve.ObserveResponse
		if err := post(client, env.lb.url+"/v1/observe", body, &resp); err != nil {
			return lat, fires, fmt.Errorf("observe period %d: %w", p, err)
		}
		now := time.Now()
		lat = append(lat, float64(now.Sub(due))/1e6)
		if !resp.Drift {
			continue
		}
		f := &fire{period: p, resp: now}
		fires = append(fires, f)
		if resp.RefitJobID == "" {
			f.jobFailed = errors.New("drift fired but no refit job was started")
			continue
		}
		followers.Add(1)
		go func() {
			defer followers.Done()
			f.job, f.waitMS, f.jobFailed = followJob(client, env.lb.url, resp.RefitJobID, now)
		}()
	}
	return lat, fires, nil
}

// followJob polls a job until it finishes, returning its final state
// and how long it waited queued (to the poll's resolution).
func followJob(c *http.Client, base, id string, submitted time.Time) (serve.JobResponse, float64, error) {
	deadline := time.Now().Add(refitTimeout)
	waitMS := -1.0
	for time.Now().Before(deadline) {
		var j serve.JobResponse
		resp, err := c.Get(base + "/v1/solve/" + id)
		if err != nil {
			return j, 0, err
		}
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			return j, 0, err
		}
		if j.Status != "queued" && waitMS < 0 {
			waitMS = float64(time.Since(submitted))/1e6 - j.ElapsedSeconds*1e3
			waitMS = math.Max(waitMS, 0)
		}
		switch j.Status {
		case "done":
			return j, waitMS, nil
		case "error", "cancelled":
			return j, waitMS, fmt.Errorf("refit job %s: %s %s", id, j.Status, j.Error)
		}
		if waitMS < 0 {
			time.Sleep(time.Millisecond)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	return serve.JobResponse{}, 0, fmt.Errorf("refit job %s did not finish within %v", id, refitTimeout)
}

// runServeMixed is the serve-mixed workload. (a) For phaseAShare of
// the measured time, Poisson selects arrive at selectRate while an
// observe stream sends one period per request, stationary until
// stepPeriod and stepped after; drift fires, warm refits run and
// install while selects continue. (b) For the rest, selects alone: two
// thirds of it measure the closed-loop ceiling from every connection in
// short bursts, each followed by a cold solve of the served game; the
// last third climbs a rate ladder in 5% steps to the highest rate that
// keeps p99 within 2 ms and the backlog from growing.
func runServeMixed(o options, rep *report) error {
	// Set-ups and cold solves rotate over the CPUs like the solve
	// workloads' ops (see cpuRotor); the serving phases run unpinned.
	var setups, builds, solves []float64
	var setupSlots, solveSlots []int
	var env *serveEnv
	defer rotor.release()
	for i := 0; i < serveSetupReps; i++ {
		slot := rotor.pin(i)
		runtime.GC()
		t0 := time.Now()
		e, build, solve, err := setupServe()
		rotor.release()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSlots = append(setupSlots, slot)
		solveSlots = append(solveSlots, slot)
		builds = append(builds, build.Seconds())
		solves = append(solves, solve.Seconds())
		if env != nil {
			env.close()
		}
		env = e
	}
	defer env.close()
	rep.set("setup_s", slotMedian(setups, setupSlots), len(setups))

	workers := runtime.NumCPU()
	rows := countRows(env.game, 256, rand.New(rand.NewSource(o.seed)))
	lg := &loadgen{
		client:  newClient(workers),
		url:     env.lb.url,
		rows:    rows,
		bodies:  make([][]byte, len(rows)),
		budget:  env.budget,
		workers: workers,
	}
	defer lg.client.CloseIdleConnections()
	for i, r := range rows {
		lg.bodies[i], _ = json.Marshal(serve.SelectRequest{Counts: r}) // ints only: cannot fail
	}

	mem := newAllocMeter()
	// (a) fixed-rate selects beside the observe stream.
	phaseA := time.Duration(phaseAShare * o.seconds * float64(time.Second))
	period := phaseA / periods
	selLog := newSelectLog()
	var (
		obsLat []float64
		fires  []*fire
		obsErr error
		prof   *cpuProfile
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		obsLat, fires, obsErr = observeStream(env, lg.client, period, rand.New(rand.NewSource(o.seed+1)))
	}()
	selRNG := rand.New(rand.NewSource(o.seed + 2))
	// The first half of the stationary part runs untraced; a traced run
	// profiles everything after it.
	untraced := period * stepPeriod / 2
	quiet := newSelectLog()
	lg.run(selectRate, untraced, selRNG, quiet)
	if o.trace {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	_, backlogA := lg.run(selectRate, phaseA-untraced, selRNG, selLog)
	wg.Wait()
	overhead := median(selLog.lat) / median(quiet.lat)
	mergeLogs(selLog, quiet)
	if obsErr != nil {
		return obsErr
	}
	sent := len(selLog.lat) + selLog.failed

	// (b) selects alone: the closed-loop ceiling from every connection,
	// as the median of bursts spread over two thirds of the phase, each
	// followed by a cold solve of the served game on a throwaway session
	// so the solve samples span the run, not only its set-up; then the
	// open-loop rate ladder from half the ceiling. Each cold solve is
	// checked against the served game's goldens.
	ladderLog := newSelectLog()
	phaseB := time.Duration((1 - phaseAShare) * o.seconds * float64(time.Second))
	var bursts []float64
	var coldCounts map[string]int
	burstSelects := 0
	for i := 0; i < ceilingBursts; i++ {
		rate, n := closedLoopRate(lg, phaseB*2/(3*ceilingBursts), ladderLog)
		bursts = append(bursts, rate)
		burstSelects += n
		slot := rotor.pin(i)
		var res *auditgame.SolveResult
		var solve time.Duration
		err := mem.around(func() (err error) {
			_, _, res, _, solve, err = coldSolve()
			return err
		})
		rotor.release()
		if err != nil {
			return fmt.Errorf("cold solve: %w", err)
		}
		solves = append(solves, solve.Seconds())
		solveSlots = append(solveSlots, slot)
		coldCounts = solveCounts(res, nil)
		if err := checkGolden(res.Mixed.Objective, serveGoldenLoss, coldCounts, serveGoldenCounts); err != nil {
			rep.fail("cold solve %d: %v", i, err)
		}
	}
	ceiling := median(bursts)
	ladderRPS, ladderSteps := ladder(lg, ceiling, phaseB/3, rand.New(rand.NewSource(o.seed+3)), ladderLog)

	if prof != nil {
		shares, n, err := prof.stopAndAttribute()
		if err != nil {
			return err
		}
		for k, v := range shares {
			rep.setLayer(k, v, n)
		}
	}

	// Checks.
	for _, p := range append(selLog.problems, ladderLog.problems...) {
		rep.fail("%s", p)
	}
	rep.attempted = sent + burstSelects + len(ladderLog.lat) + ladderLog.failed + len(obsLat)
	rep.failed = selLog.failed + ladderLog.failed
	var afterStep, falseFires, installed, gated int
	var refitS, waits []float64
	detect := 0
	spans := map[string]float64{}
	var reused, parked float64
	for _, f := range fires {
		if f.jobFailed != nil {
			rep.fail("period %d: %v", f.period, f.jobFailed)
			continue
		}
		if f.period < stepPeriod {
			falseFires++
		} else {
			afterStep++
			if detect == 0 {
				detect = f.period - stepPeriod + 1
			}
		}
		waits = append(waits, f.waitMS)
		spanSums(spans, f.job.Trace)
		if f.job.Warm != nil {
			reused += float64(f.job.Warm.ColumnsReused)
			parked += float64(f.job.Warm.ColumnsParked)
		}
		switch f.job.Outcome {
		case auditgame.RefitInstalled:
			installed++
			if t, ok := firstSeenAtLeast(selLog, f.job.PolicyVersion); ok {
				refitS = append(refitS, t.Sub(f.resp).Seconds())
			}
		case auditgame.RefitGated:
			gated++
		}
	}
	if afterStep == 0 {
		rep.fail("no drift fired in the %d periods after the step", periods-stepPeriod)
	}
	if installed == 0 || len(refitS) == 0 {
		rep.fail("no refit installed a policy that a select then served")
	}

	// The policy serving at the end, under the post-step model.
	final, _ := env.aud.CurrentPolicy()
	postGame := *env.game
	postGame.Types = append([]auditgame.AlertType(nil), env.game.Types...)
	for t, d := range stepModel(env.game) {
		postGame.Types[t].Dist = d
	}
	postIn, err := auditgame.NewInstance(&postGame, final.Budget, auditgame.SourceOptions{BankSize: serveBank, Seed: serveGameSeed + 1})
	if err != nil {
		return err
	}
	rep.set("policy_loss", auditgame.Loss(postIn, mixedOf(final)), 1)

	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d fires (%d before the step, first after it at +%d periods), %d installed, %d gated\n",
		len(fires), falseFires, detect, installed, gated)
	rep.set("solve_p50_s", slotMedian(solves, solveSlots), len(solves))
	rep.set("solves_per_s", float64(len(solves))/sum(solves), len(solves))
	rep.set("select_p50_ms", median(selLog.lat), len(selLog.lat))
	rep.set("select_max_rps", ceiling, len(bursts))

	if !o.trace {
		return nil
	}
	rep.setLayer("trace_overhead", overhead, len(selLog.lat))
	rep.setLayer("select_p99_ms", quantile(selLog.lat, 0.99), len(selLog.lat))
	rep.setLayer("serve.ladder_rps", ladderRPS, ladderSteps)
	rep.setLayer("workload.build_s", median(builds), len(builds))
	t0 := time.Now()
	if _, err := auditgame.NewInstance(&postGame, final.Budget, auditgame.SourceOptions{BankSize: serveBank, Seed: serveGameSeed + 1}); err != nil {
		return err
	}
	rep.setLayer("game.instance_s", time.Since(t0).Seconds(), 1)
	rep.setLayer("observe_p99_ms", quantile(obsLat, 0.99), len(obsLat))
	rep.setLayer("refit_s", median(refitS), len(refitS))
	rep.setLayer("drift_detect_periods", float64(detect), afterStep)
	rep.setLayer("drift_false_fires", float64(falseFires), stepPeriod)
	rep.setLayer("error_rate", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	rep.setLayer("refit.fires", float64(len(fires)), len(fires))
	rep.setLayer("refit.installed", float64(installed), len(fires))
	rep.setLayer("refit.gated", float64(gated), len(fires))
	ratio := 0.0
	if len(fires) > 0 {
		ratio = float64(installed) / float64(len(fires))
	}
	rep.setLayer("refit.install_ratio", ratio, len(fires))
	nf := max(len(fires), 1)
	rep.setLayer("solver.columns_reused", reused/float64(nf), len(fires))
	rep.setLayer("solver.columns_parked", parked/float64(nf), len(fires))
	reportSpans(rep, spans, len(fires))
	rep.setLayer("serve.job_wait_ms", median(waits), len(waits))
	rep.setLayer("loadgen.lag_p99_ms", quantile(selLog.lag, 0.99), len(selLog.lag))
	rep.setLayer("loadgen.sent", float64(sent), 1)
	rep.setLayer("loadgen.failed", float64(selLog.failed), 1)
	rep.setLayer("loadgen.backlog_max", float64(backlogA), 1)

	p99, dropped, err := scrapeServer(lg.client, env.lb.url)
	if err != nil {
		return err
	}
	rep.setLayer("serve.server_select_p99_ms", p99, 1)
	rep.setLayer("serve.rejected_429", float64(selLog.rejected+ladderLog.rejected)+dropped, 1)

	if err := layerProbes(rep, env.aud, env.game, rows, env.lb.url); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	// The cold solves' counts, allocations and the run's GC share.
	for _, name := range opCounters {
		rep.setLayer(name, float64(coldCounts[name]), ceilingBursts)
	}
	reportPruneRatio(rep, ceilingBursts)
	mem.report(rep)
	return nil
}

// ladder steps the select rate up by ladderStep from half the
// closed-loop ceiling until a step misses the p99 bound or its backlog
// grows (stepping down instead while no step has passed), and returns
// the highest passing rate, 0 if none passed, and the steps taken.
func ladder(lg *loadgen, ceiling float64, budget time.Duration, r *rand.Rand, log *selectLog) (float64, int) {
	stepDur := time.Duration(ladderStepS * float64(time.Second))
	rate := 0.5 * ceiling
	best, steps := 0.0, 0
	end := time.Now().Add(budget)
	for time.Now().Add(stepDur).Before(end) || steps == 0 {
		step := newSelectLog()
		endBacklog, _ := lg.run(rate, stepDur, r, step)
		mergeLogs(log, step)
		steps++
		ok := len(step.lat) > 0 && quantile(step.lat, 0.99) <= ladderP99MS && endBacklog <= lg.workers
		if ok {
			best = rate
			rate *= ladderStep
		} else if best > 0 {
			break
		} else {
			rate /= ladderStep
		}
	}
	return best, steps
}

// closedLoopRate measures back-to-back selects from every connection,
// returning the rate and the selects sent.
func closedLoopRate(lg *loadgen, dur time.Duration, log *selectLog) (float64, int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	n := 0
	end := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < lg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := 0
			for i := w; time.Now().Before(end); i += lg.workers {
				var resp serve.SelectResponse
				row := i % len(lg.rows)
				if err := post(lg.client, lg.url+"/v1/select", lg.bodies[row], &resp); err != nil {
					log.problem("select: %v", err)
					return
				}
				if err := checkSelection(resp.Ordering, resp.Chosen, resp.Spent, lg.rows[row], lg.budget); err != nil {
					log.problem("select response: %v", err)
					return
				}
				k++
			}
			mu.Lock()
			n += k
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds(), n
}

func mergeLogs(dst, src *selectLog) {
	dst.lat = append(dst.lat, src.lat...)
	dst.lag = append(dst.lag, src.lag...)
	dst.failed += src.failed
	dst.rejected += src.rejected
	dst.problems = append(dst.problems, src.problems...)
	for v, t := range src.firstSeen {
		if u, ok := dst.firstSeen[v]; !ok || t.Before(u) {
			dst.firstSeen[v] = t
		}
	}
}

// firstSeenAtLeast is when a select first carried version v or later.
func firstSeenAtLeast(l *selectLog, v uint64) (time.Time, bool) {
	var best time.Time
	found := false
	for ver, t := range l.firstSeen {
		if ver >= v && (!found || t.Before(best)) {
			best, found = t, true
		}
	}
	return best, found
}

// mixedOf rebuilds the mixed strategy a policy artifact carries.
func mixedOf(p *auditgame.Policy) *auditgame.MixedPolicy {
	m := &auditgame.MixedPolicy{
		Po:         append([]float64(nil), p.Probs...),
		Thresholds: append(auditgame.Thresholds(nil), p.Thresholds...),
		Objective:  p.ExpectedLoss,
	}
	for _, o := range p.Orderings {
		m.Q = append(m.Q, append(auditgame.Ordering(nil), o...))
	}
	return m
}

// scrapeServer reads the server's own select latency p99 (interpolated
// within the histogram's power-of-two buckets) and its dropped-refit
// count from GET /metrics.
func scrapeServer(c *http.Client, base string) (p99MS, droppedRefits float64, err error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	type bucket struct{ le, n float64 }
	var buckets []bucket
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "http_request_seconds_bucket{") && strings.Contains(name, `path="/v1/select"`):
			_, le, _ := strings.Cut(name, `le="`)
			le, _, _ = strings.Cut(le, `"`)
			b := bucket{le: math.Inf(1), n: v}
			if le != "+Inf" {
				if b.le, perr = strconv.ParseFloat(le, 64); perr != nil {
					continue
				}
			}
			buckets = append(buckets, b)
		case strings.HasPrefix(name, "refits_dropped_total"):
			droppedRefits += v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].n == 0 {
		return 0, 0, errors.New("metrics: no select latency histogram")
	}
	target := 0.99 * buckets[len(buckets)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range buckets {
		if b.n >= target {
			hi := b.le
			if math.IsInf(hi, 1) {
				hi = lo
			}
			frac := 0.0
			if b.n > prev {
				frac = (target - prev) / (b.n - prev)
			}
			return (lo + (hi-lo)*frac) * 1e3, droppedRefits, nil
		}
		lo, prev = b.le, b.n
	}
	return lo * 1e3, droppedRefits, nil
}
