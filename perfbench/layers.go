package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"auditgame"
	"auditgame/internal/serve"
	"auditgame/internal/telemetry"
)

// countRows draws n per-type count vectors from the game's count model.
func countRows(g *auditgame.Game, n int, r *rand.Rand) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, g.NumTypes())
		for t, at := range g.Types {
			rows[i][t] = at.Dist.Sample(r)
		}
	}
	return rows
}

// checkSelection validates one audit selection against the counts it
// answered: the ordering is a permutation of the types, each type's
// chosen indexes are distinct, sorted, inside its bin and no more than
// its count, and the spend stays within the budget.
func checkSelection(ordering []int, chosen [][]int, spent float64, counts []int, budget float64) error {
	n := len(counts)
	if len(ordering) != n || len(chosen) != n {
		return fmt.Errorf("selection shape: %d-type ordering, %d chosen bins for %d types", len(ordering), len(chosen), n)
	}
	seen := make([]bool, n)
	for _, t := range ordering {
		if t < 0 || t >= n || seen[t] {
			return fmt.Errorf("ordering %v is not a permutation of %d types", ordering, n)
		}
		seen[t] = true
	}
	for t, c := range chosen {
		if len(c) > counts[t] {
			return fmt.Errorf("type %d: %d chosen of %d alerts", t, len(c), counts[t])
		}
		for i, idx := range c {
			if idx < 0 || idx >= counts[t] || (i > 0 && idx <= c[i-1]) {
				return fmt.Errorf("type %d: chosen indexes %v not distinct sorted indexes into %d alerts", t, c, counts[t])
			}
		}
	}
	if spent < 0 || spent > budget*(1+1e-9)+1e-9 {
		return fmt.Errorf("spent %v outside budget %v", spent, budget)
	}
	return nil
}

// selectBatch is how many selections the select probe times together;
// timing batches keeps clock reads and scheduler noise out of a
// sub-microsecond call.
const selectBatch = 50

// selectProbe serves batches of selections from the session's installed
// policy, validating each, and appends each batch's mean latency per
// selection in milliseconds.
func selectProbe(a *auditgame.Auditor, rows [][]int, batches int, lat *[]float64) (time.Duration, error) {
	p := a.Policy()
	if p == nil {
		return 0, errors.New("select probe: no policy installed")
	}
	sels := make([]*auditgame.AuditSelection, selectBatch)
	var total time.Duration
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := range sels {
			sel, _, err := a.SelectVersioned(rows[(b*selectBatch+i)%len(rows)])
			if err != nil {
				return total, fmt.Errorf("select: %w", err)
			}
			sels[i] = sel
		}
		d := time.Since(t0)
		for i, sel := range sels {
			if err := checkSelection(sel.Ordering, sel.Chosen, sel.Spent, rows[(b*selectBatch+i)%len(rows)], p.Budget); err != nil {
				return total, fmt.Errorf("select: %w", err)
			}
		}
		total += d
		*lat = append(*lat, float64(d)/selectBatch/1e6)
	}
	return total, nil
}

// spanSums accumulates a trace's span durations by span name, in
// seconds.
func spanSums(acc map[string]float64, tr *auditgame.SolveTrace) {
	if tr == nil {
		return
	}
	for _, s := range tr.Spans {
		acc[s.Name] += s.DurMS / 1e3
	}
}

// reportSpans sets the span layer metrics from per-op sums.
func reportSpans(rep *report, acc map[string]float64, ops int) {
	names := map[string]string{
		"span.cggs.master_s":      "cggs.master",
		"span.cggs.price_s":       "cggs.price",
		"span.cggs.warm_screen_s": "cggs.warm_screen",
		"span.refit.snapshot_s":   "refit.snapshot",
		"span.refit.model_s":      "refit.model",
		"span.refit.gate_s":       "refit.gate",
		"span.install_s":          "install",
	}
	for metric, span := range names {
		v := 0.0
		if ops > 0 {
			v = acc[span] / float64(ops)
		}
		rep.setLayer(metric, v, ops)
	}
}

// perCallUS times f in batches of n calls and returns the median batch
// mean in microseconds and the mean heap allocations per call.
func perCallUS(batches, n int, f func(i int) error) (us, allocs float64, err error) {
	var ms runtime.MemStats
	var means []float64
	var mallocs uint64
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(b*n + i); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		means = append(means, float64(d)/float64(n)/1e3)
	}
	return median(means), float64(mallocs) / float64(batches*n), nil
}

// newServer builds a serve.Server with telemetry on the session.
func newServer(a *auditgame.Auditor) (*serve.Server, error) {
	return serve.New(serve.Config{
		Auditor:      a,
		PollInterval: -1,
		Logger:       slog.New(slog.DiscardHandler),
		Telemetry:    telemetry.New(),
	})
}

// loopback serves h on a fresh 127.0.0.1 listener until closed.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

// close shuts the listener down and waits for the serve loop to exit.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.srv.Shutdown(ctx); err != nil {
		lb.srv.Close()
	}
	<-lb.done
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends a JSON body and decodes a 200 response into out.
func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// layerProbes times the read path and the observe path layer by layer,
// each in a closed single-threaded loop from outside: the serve handler
// through an httptest recorder, the JSON codec, the session select, the
// policy select core, the loopback transport, and Tracker.Observe. url,
// when set, is a live server for this session; otherwise the probe
// starts its own.
func layerProbes(rep *report, a *auditgame.Auditor, g *auditgame.Game, rows [][]int, url string) error {
	const batches, n = 5, 400
	bodies := make([][]byte, len(rows))
	for i, r := range rows {
		bodies[i], _ = json.Marshal(serve.SelectRequest{Counts: r}) // ints only: cannot fail
	}

	us, allocs, err := perCallUS(batches, n*10, func(i int) error {
		_, _, err := a.SelectVersioned(rows[i%len(rows)])
		return err
	})
	if err != nil {
		return err
	}
	rep.setLayer("auditgame.select_us", us, batches)
	rep.setLayer("auditgame.select_allocs", math.Round(allocs*100)/100, batches)

	pol := a.Policy()
	r := rand.New(rand.NewSource(7))
	us, _, err = perCallUS(batches, n*10, func(i int) error {
		_, err := pol.Select(rows[i%len(rows)], r)
		return err
	})
	if err != nil {
		return err
	}
	rep.setLayer("policy.select_us", us, batches)

	us, _, err = perCallUS(batches, n*10, func(i int) error {
		var req serve.SelectRequest
		return json.Unmarshal(bodies[i%len(bodies)], &req)
	})
	if err != nil {
		return err
	}
	rep.setLayer("serve.decode_us", us, batches)

	sel, version, err := a.SelectVersioned(rows[0])
	if err != nil {
		return err
	}
	resp := serve.SelectResponse{V: serve.APIVersion, PolicyVersion: version, Ordering: sel.Ordering,
		Chosen: sel.Chosen, Spent: sel.Spent, Audited: sel.Audited()}
	us, _, err = perCallUS(batches, n*10, func(int) error {
		_, err := json.Marshal(resp)
		return err
	})
	if err != nil {
		return err
	}
	rep.setLayer("serve.encode_us", us, batches)

	srv, err := newServer(a)
	if err != nil {
		return err
	}
	h := srv.Handler()
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	var handlerUS, handlerAllocs []float64
	for b := 0; b < batches; b++ {
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(bodies[i%len(bodies)]))
			recs[i] = httptest.NewRecorder()
		}
		us, allocs, err := perCallUS(1, n, func(i int) error {
			h.ServeHTTP(recs[i], reqs[i])
			if recs[i].Code != http.StatusOK {
				return fmt.Errorf("handler select: HTTP %d", recs[i].Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		handlerUS = append(handlerUS, us)
		handlerAllocs = append(handlerAllocs, allocs)
	}
	rep.setLayer("serve.handler_us", median(handlerUS), batches)
	rep.setLayer("serve.handler_allocs", math.Round(median(handlerAllocs)*100)/100, batches)

	if url == "" {
		lb, err := startLoopback(h)
		if err != nil {
			return err
		}
		defer lb.close()
		url = lb.url
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	rtt, _, err := perCallUS(batches, n, func(i int) error {
		return post(client, url+"/v1/select", bodies[i%len(bodies)], nil)
	})
	if err != nil {
		return err
	}
	rep.setLayer("http.transport_us", math.Max(rtt-median(handlerUS), 0), batches)

	tr, err := auditgame.NewTracker(g.NumTypes(), serveTrackerConfig())
	if err != nil {
		return err
	}
	if err := tr.SetInstalled(g.Dists(), 1); err != nil {
		return err
	}
	us, _, err = perCallUS(batches, n*10, func(i int) error {
		_, err := tr.Observe(rows[i%len(rows)])
		return err
	})
	if err != nil {
		return err
	}
	rep.setLayer("refit.observe_us", us, batches)
	return nil
}

// serveTrackerConfig is the drift tracker at the policy server's
// defaults: a 28-period window checked every period, the distance
// detector at a 0.2 total-variation threshold, and the default
// min-interval and cooldown of half a window.
func serveTrackerConfig() auditgame.TrackerConfig {
	det := auditgame.NewDistanceDetector()
	det.TVThreshold = 0.2
	return auditgame.TrackerConfig{Window: 28, Cadence: 1, Detector: det}
}

// zeroLayers sets the layer metrics a workload bypasses to 0, so every
// traced run reports every layer.
func zeroLayers(rep *report, names ...string) {
	for _, n := range names {
		if _, ok := rep.layer[n]; !ok {
			rep.setLayer(n, 0, 0)
		}
	}
}
