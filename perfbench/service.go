package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The service-grid design space: every workload at every cycle time, with
// seeded total sizes.
var (
	gridWorkloads = workload.Names()
	gridSizesKB   = []int{4, 8, 16, 32, 64, 128, 256}
	gridCycleNs   = []int{24, 40, 60}
)

// clients is the closed loop's size: each client submits its next job only
// after the previous one's result is in hand.
const clients = 2

// requestStream draws the stream of grid requests one round submits; every
// round of a run draws its own.
// Each (workload, cycle time) pair gets three jobs over five of the seven
// sizes, picked by the seed: {a, b, c}, {b, d} and {c, d, e}. That is
// eight cells of which five are distinct, so three in eight are repeats,
// memo reads when the earlier job has finished, whatever the seed. The
// seed also shuffles the order of the jobs. 8 workloads × 3 cycle times ×
// 3 jobs is 72 jobs; at three journal fsyncs a job a round gives one
// service life the 200 fsyncs a p95 needs.
func requestStream(seed uint64, round int) []service.GridRequest {
	rng := rand.New(rand.NewPCG(seed, 0x6121D+uint64(round)))
	var out []service.GridRequest
	for _, wl := range gridWorkloads {
		for _, cy := range gridCycleNs {
			p := rng.Perm(len(gridSizesKB))
			for _, pick := range [][]int{{0, 1, 2}, {1, 3}, {2, 3, 4}} {
				sizes := make([]int, len(pick))
				for i, k := range pick {
					sizes[i] = gridSizesKB[p[k]]
				}
				sort.Ints(sizes)
				out = append(out, service.GridRequest{Workloads: []string{wl}, Scale: scale, SizesKB: sizes, CycleNs: cy})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// svcGrid runs cachesimd in process: service.Open on a fresh data
// directory and service.NewServer on a loopback listener, every round.
type svcGrid struct {
	seed      uint64
	dir       string // parent of the per-round data directories
	traceMode bool

	// The round's requests and their distinct cells.
	round  int
	stream []service.GridRequest
	specs  map[string]service.CellSpec

	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	data   string

	// results holds each cell's first-seen result; every later sighting,
	// in any round, must equal it. first is the digest of round 0's cells,
	// the one recorded for the default and held-out seeds.
	results map[string]service.CellResult
	first   string

	// Traced rounds: the jobs, the fresh cells' durations from each job's
	// own trace (ms), and a /metrics scrape per round.
	jobs    []jobObs
	cellMs  []float64
	scrapes []map[string]float64
}

func newSvcGrid(seed uint64, dir string, traceMode bool) *svcGrid {
	return &svcGrid{seed: seed, dir: dir, traceMode: traceMode, results: make(map[string]service.CellResult)}
}

func (g *svcGrid) setup(tr *tracer) error {
	root := tr.start(0, "setup", "")
	defer tr.end(root, work{})
	g.stream = requestStream(g.seed, g.round)
	g.round++
	g.specs = make(map[string]service.CellSpec)
	for _, r := range g.stream {
		for _, c := range r.Cells() {
			g.specs[c.Key()] = c
		}
	}
	data, err := os.MkdirTemp(g.dir, "svc-")
	if err != nil {
		return err
	}
	svc, err := service.Open(service.Config{DataDir: data})
	if err != nil {
		return err
	}
	if n := len(svc.Jobs()); n != 0 {
		return fmt.Errorf("service opened warm with %d jobs", n)
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Kill()
		return err
	}
	g.svc, g.data = svc, data
	g.srv = &http.Server{Handler: service.NewServer(svc)}
	g.served = make(chan error, 1)
	go func() { g.served <- g.srv.Serve(ln) }()
	g.base = "http://" + ln.Addr().String()
	g.client = &http.Client{Timeout: 60 * time.Second}
	return nil
}

func (g *svcGrid) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.srv.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, g.svc.Drain(ctx))
	g.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(g.data))
}

// jobObs is one job as its client saw it.
type jobObs struct {
	latency, submit, result, queueWait, run time.Duration
	requests, failed                        int // HTTP requests made and failed
	state                                   service.JobState
	results                                 []service.CellResult
	cellMs                                  []float64 // fresh cells, traced rounds only
	err                                     error
}

func (g *svcGrid) run(tr *tracer, t *tally) error {
	next := make(chan int, len(g.stream)) // sized to every job of the round
	for i := range g.stream {
		next <- i
	}
	close(next)
	obs := make([]jobObs, len(g.stream))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				obs[i] = g.job(tr, g.stream[i])
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]service.CellResult)
	for _, o := range obs {
		why := fmt.Sprintf("job ended %s: %v", o.state, o.err)
		t.add(o.requests, o.failed, why)
		if o.failed == 0 && (o.err != nil || o.state != service.StateDone) {
			t.add(0, 1, why)
		}
		for _, r := range o.results {
			seen[r.Key] = r
			first, ok := g.results[r.Key]
			if !ok {
				g.results[r.Key] = r
				continue
			}
			t.check(r == first, fmt.Sprintf("cell %s: %+v, earlier %+v", r.Key, r, first))
		}
	}
	t.check(len(seen) == len(g.specs), fmt.Sprintf("%d of %d cells returned", len(seen), len(g.specs)))
	if g.first == "" {
		g.first = resultDigest(seen)
	}
	if tr != nil {
		g.jobs = append(g.jobs, obs...)
		for _, o := range obs {
			g.cellMs = append(g.cellMs, o.cellMs...)
		}
		m, err := g.scrape()
		t.check(err == nil, fmt.Sprintf("scraping /metrics: %v", err))
		if err == nil {
			g.scrapes = append(g.scrapes, m)
		}
	}
	return nil
}

// job submits one request, follows its event stream to the terminal
// state and fetches the result.
func (g *svcGrid) job(tr *tracer, req service.GridRequest) (o jobObs) {
	t0 := time.Now()
	root := tr.start(0, "client.job", "")
	defer func() {
		o.latency = time.Since(t0)
		tr.end(root, work{})
	}()
	body, _ := json.Marshal(req) // a GridRequest always encodes
	id := tr.start(root, "http.submit", "")
	var st service.JobStatus
	o.requests++
	err := g.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	tr.end(id, work{})
	if err != nil {
		o.failed++
		o.err = err
		return o
	}
	o.submit = time.Since(t0)
	tr.label(root, st.ID)
	tr.label(id, st.ID)

	id = tr.start(root, "http.events", st.ID)
	o.requests++
	state, err := g.follow(st.ID)
	tr.end(id, work{})
	o.state = state
	if err != nil {
		o.failed++
		o.err = err
		return o
	}

	id = tr.start(root, "http.result", st.ID)
	t1 := time.Now()
	var res struct {
		Status  service.JobStatus    `json:"status"`
		Results []service.CellResult `json:"results"`
	}
	o.requests++
	err = g.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	tr.end(id, work{})
	if err != nil {
		o.failed++
		o.err = err
		return o
	}
	o.result = time.Since(t1)
	o.results = res.Results
	o.queueWait = res.Status.Started.Sub(res.Status.Submitted)
	o.run = res.Status.Finished.Sub(res.Status.Started)
	if tr != nil {
		// After the result is in hand, so outside the job's latency.
		id := tr.start(0, "http.trace", st.ID)
		o.requests++
		o.cellMs, err = g.cellDurations(st.ID)
		tr.end(id, work{})
		if err != nil {
			o.failed++
			o.err = err
		}
	}
	return o
}

// cellDurations reads the job's span log and returns the duration of each
// freshly computed cell; memo reads are zero-length markers and skipped.
func (g *svcGrid) cellDurations(id string) ([]float64, error) {
	resp, err := g.client.Get(g.base + "/v1/jobs/" + id + "/trace?format=ndjson")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var out []float64
	dec := json.NewDecoder(resp.Body)
	for {
		var sp telemetry.Span
		if err := dec.Decode(&sp); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace %s: %w", id, err)
		}
		if sp.Name == "cell" && sp.Attrs["memoized"] == "" {
			out = append(out, ms(sp.End.Sub(sp.Start)))
		}
	}
}

// call makes one API request, requiring status want and decoding the body.
func (g *svcGrid) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// follow reads the job's NDJSON event stream, which the server ends at
// the terminal state, and returns the last state it reported.
func (g *svcGrid) follow(id string) (service.JobState, error) {
	resp, err := g.client.Get(g.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	var state service.JobState
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return state, fmt.Errorf("events %s: %w", id, err)
		}
		if ev.State != "" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return state, err
	}
	if !state.Terminal() {
		return state, fmt.Errorf("events %s ended in state %q", id, state)
	}
	return state, nil
}

func (g *svcGrid) scrape() (map[string]float64, error) {
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return telemetry.ParsePromText(resp.Body)
}

// enough holds a traced run until its traced rounds have measured the 100
// jobs a p90 and the 200 fresh cells a p95 need.
func (g *svcGrid) enough() bool {
	return !g.traceMode || (reportable(len(g.jobs), 0.9) && reportable(len(g.cellMs), 0.95))
}

// reference simulates one cell the way cachesimd does, one layer call at a
// time: the default system with the cell's variations, the workload's
// trace, and system.Simulate.
func reference(tr *tracer, root int, c service.CellSpec) (service.CellResult, error) {
	var vs []config.Variation
	if c.SizeKB > 0 {
		vs = append(vs, config.WithTotalSizeKB(c.SizeKB))
	}
	if c.CycleNs > 0 {
		vs = append(vs, config.WithCycleNs(c.CycleNs))
	}
	cfg, err := config.Default().Apply(vs...).System()
	if err != nil {
		return service.CellResult{}, err
	}
	wl, err := workload.ByName(c.Workload)
	if err != nil {
		return service.CellResult{}, err
	}
	key := c.Key()
	id := tr.start(root, "workload.generate", key)
	t, err := wl.Generate(c.Scale)
	if err != nil {
		return service.CellResult{}, err
	}
	refs := int64(len(t.Refs))
	tr.end(id, work{refs: refs})
	id = tr.start(root, "trace.validate", key)
	if err := t.Validate(); err != nil {
		return service.CellResult{}, err
	}
	tr.end(id, work{refs: refs})
	id = tr.start(root, "system.simulate", key)
	res, err := system.Simulate(cfg, t)
	if err != nil {
		return service.CellResult{}, err
	}
	tr.end(id, work{refs: refs})
	w := res.Warm
	out := service.CellResult{
		Key: key, Workload: c.Workload, SizeKB: c.SizeKB, Assoc: c.Assoc, BlockWords: c.BlockWords,
		CycleNs: res.CycleNs, Refs: w.Refs, Cycles: w.Cycles,
		LoadMisses: w.LoadMisses, IfMisses: w.IfetchMisses, ExecMs: res.ExecTimeNs() / 1e6,
	}
	if w.Refs > 0 {
		out.CPI = float64(w.Cycles) / float64(w.Refs)
	}
	return out, nil
}

// resultDigest fingerprints a set of cell results.
func resultDigest(results map[string]service.CellResult) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]float64, len(keys))
	for i, k := range keys {
		r := results[k]
		rows[i] = []float64{float64(r.SizeKB), float64(r.CycleNs), float64(r.Refs), float64(r.Cycles),
			float64(r.LoadMisses), float64(r.IfMisses), r.CPI, r.ExecMs}
	}
	return digest(rows)
}

// check compares round 0's results with the ones recorded for this seed,
// and a seeded sample of the run's cells with a reference simulation.
func (g *svcGrid) check(t *tally) error {
	fmt.Fprintf(os.Stderr, "perfbench: service-grid seed %d cell results digest %s\n", g.seed, g.first)
	if want, ok := expected["service-grid"][g.seed]; ok {
		t.check(g.first == want, fmt.Sprintf("cell results digest %s, recorded %s", g.first, want))
	}
	keys := sortedKeys(g.results)
	rng := rand.New(rand.NewPCG(g.seed, 0xC4EC))
	for k := 0; k < referenceSamples && len(keys) > 0; k++ {
		key := keys[rng.IntN(len(keys))]
		r := g.results[key]
		want, err := reference(nil, 0, service.CellSpec{Workload: r.Workload, Scale: scale, SizeKB: r.SizeKB, CycleNs: r.CycleNs})
		if err != nil {
			return err
		}
		t.check(r == want, fmt.Sprintf("cell %s: service %+v, reference %+v", key, r, want))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decompose simulates every distinct cell of the last round once,
// serially, and requires the service's results bit for bit.
func (g *svcGrid) decompose(tr *tracer, root int, t *tally) error {
	for _, key := range sortedKeys(g.specs) {
		want, err := reference(tr, root, g.specs[key])
		if err != nil {
			return err
		}
		t.check(g.results[key] == want, fmt.Sprintf("cell %s: service %+v, decomposition %+v", key, g.results[key], want))
	}
	return nil
}

func (g *svcGrid) layers(out map[string]float64, _ map[string]*layerSum) {
	var lat, submit, result, queue, run []float64
	for _, o := range g.jobs {
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency))
		submit = append(submit, ms(o.submit))
		result = append(result, ms(o.result))
		queue = append(queue, ms(o.queueWait))
		run = append(run, ms(o.run))
	}
	out["service.jobs_measured"] = float64(len(lat))
	putPct(out, "service.job_latency_ms.p50", lat, 0.5)
	putPct(out, "service.job_latency_ms.p90", lat, 0.9)
	putPct(out, "service.submit_ms.p50", submit, 0.5)
	putPct(out, "service.result_ms.p50", result, 0.5)
	putPct(out, "service.queue_wait_ms.p50", queue, 0.5)
	putPct(out, "service.queue_wait_ms.p90", queue, 0.9)
	putPct(out, "service.run_ms.p50", run, 0.5)
	putPct(out, "service.run_ms.p90", run, 0.9)

	putPct(out, "service.cell_latency_ms.p50", g.cellMs, 0.5)
	putPct(out, "service.cell_latency_ms.p95", g.cellMs, 0.95)

	// The scrape covers one service life, a round. Its fsync quantiles are
	// power-of-two bucket bounds, reported when the life had enough fsyncs.
	var memo, fsync, httpErrs, shed []float64
	for _, m := range g.scrapes {
		replayed := m["cachesim_cells_replayed"]
		all := replayed + m["cachesim_cells_done"] + m["cachesim_cells_failed"]
		if all > 0 {
			memo = append(memo, replayed/all)
		}
		if reportable(int(m["cachesim_journal_fsync_latency_us_count"]), 0.95) {
			fsync = append(fsync, m[`cachesim_journal_fsync_latency_us{quantile="0.95"}`]/1e3)
		}
		httpErrs = append(httpErrs, m["cachesim_http_errors"])
		shed = append(shed, m["cachesim_jobs_shed"])
	}
	out["service.memo_hit_ratio"] = median(memo)
	if len(fsync) > 0 {
		out["service.journal_fsync_ms.p95"] = median(fsync)
	}
	out["service.http_errors"] = sum(httpErrs)
	out["service.jobs_shed"] = sum(shed)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// putPct sets out[name] when the percentile has enough samples beyond it.
func putPct(out map[string]float64, name string, xs []float64, p float64) {
	if v, ok := percentile(xs, p); ok {
		out[name] = v
	}
}
