// Command perfbench is the repository's benchmark: it times the simulator
// itself, end to end and layer by layer, on two workloads, and checks
// every simulated result it produces. See README.md.
//
// It prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with -trace 1 they are the per-layer metrics of a traced
// run. Diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// scale is the paperfigs default: a quarter of each trace's length,
	// every footprint in full.
	scale = 0.25
	// workers bounds the sweep pool, as paperfigs -jobs 2 would.
	workers = 2
	// referenceSamples is how many grid points or cells a run re-checks
	// with the single-phase reference simulator.
	referenceSamples = 2
	// defaultSeed leaves the Table 1 catalog as paperfigs uses it;
	// heldOutSeed is kept back for re-checking claims.
	defaultSeed = 0
	heldOutSeed = 1988
	// maxLoop bounds the measuring loop, so a run ends within three
	// minutes however slow the program has become.
	maxLoop = 120 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of paperfigs or cachesimd sees, each a
// median over the rounds of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MiB"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// reach reads 0.
var perLayer = []metricDef{
	{"workload.generate.busy_s", "s"},
	{"workload.generate.refs_per_s", "1/s"},
	{"trace.validate.refs_per_s", "1/s"},
	{"engine.profile.calls", "count"},
	{"engine.profile.busy_s", "s"},
	{"engine.profile.refs_per_s", "1/s"},
	{"engine.profile.events_per_kref", "count"},
	{"engine.profile.alloc_bytes_per_event", "B"},
	{"engine.replay.calls", "count"},
	{"engine.replay.busy_s", "s"},
	{"engine.replay.events_per_s", "1/s"},
	{"engine.replay.alloc_bytes_per_call", "B"},
	{"system.simulate.busy_s", "s"},
	{"system.simulate.refs_per_s", "1/s"},
	{"experiments.sweep.busy_s", "s"},
	{"experiments.cells", "count"},
	{"experiments.cell_latency_ms.p50", "ms"},
	{"experiments.cell_latency_ms.p95", "ms"},
	{"experiments.orchestration_share", "ratio"},
	{"runner.cell_attempts", "count"},
	{"runner.cells_failed", "count"},
	{"analysis.busy_s", "s"},
	{"service.jobs_measured", "count"},
	{"service.job_latency_ms.p50", "ms"},
	{"service.job_latency_ms.p90", "ms"},
	{"service.submit_ms.p50", "ms"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p90", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.run_ms.p90", "ms"},
	{"service.result_ms.p50", "ms"},
	{"service.memo_hit_ratio", "ratio"},
	{"service.cell_latency_ms.p50", "ms"},
	{"service.cell_latency_ms.p95", "ms"},
	{"service.journal_fsync_ms.p95", "ms"},
	{"service.http_errors", "count"},
	{"service.jobs_shed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.trace_overhead", "s"},
	{"bench.trace_coverage", "ratio"},
}

// bench is one workload. Each round sets up fresh state (timed as
// setup_s), runs the timed phase and tears the state down, so no round and
// no workload shares a cache with another.
type bench interface {
	setup(tr *tracer) error
	run(tr *tracer, t *tally) error
	teardown() error
	// enough reports whether the rounds so far measured enough requests.
	enough() bool
	// check verifies the outputs once the rounds are over.
	check(t *tally) error
	// decompose repeats the work serially, one span per layer call, and
	// requires the same results bit for bit.
	decompose(tr *tracer, root int, t *tally) error
	// layers adds the workload's own per-layer metrics to out.
	layers(out map[string]float64, dec map[string]*layerSum)
}

var workloads = []string{"figs-speedsize", "service-grid"}

func newBench(name string, seed uint64, dir string, traceMode bool) (bench, error) {
	switch name {
	case "figs-speedsize":
		return newFigs(seed), nil
	case "service-grid":
		return newSvcGrid(seed, dir, traceMode), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloads, ", "))
}

// round is one round's resource use.
type round struct {
	traced                       bool
	setup, wall, cpu, alloc, gcs float64
	gcShare                      float64
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 15, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced, per-layer measurement")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for service data and span logs")
	flag.Parse()
	traceMode := *traceFlag == 1
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	b, err := newBench(*name, *seed, *out, traceMode)
	if err != nil {
		return err
	}

	var t tally
	tr := &tracer{}
	rounds, err := measure(b, time.Duration(*seconds*float64(time.Second)), traceMode, tr, &t)
	if err != nil {
		return err
	}
	if err := b.check(&t); err != nil {
		return err
	}
	metrics := make(map[string]float64)
	var defs []metricDef
	if traceMode {
		defs = perLayer
		if err := traced(b, rounds, tr, &t, metrics); err != nil {
			return err
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.ndjson", *name, *seed))
		if err := tr.writeNDJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	} else {
		defs = endToEnd
		pick := func(f func(round) float64) float64 {
			var xs []float64
			for _, r := range rounds {
				xs = append(xs, f(r))
			}
			return median(xs)
		}
		metrics["setup_s"] = pick(func(r round) float64 { return r.setup })
		metrics["wall_s"] = pick(func(r round) float64 { return r.wall })
		metrics["cpu_s"] = pick(func(r round) float64 { return r.cpu })
		metrics["alloc_mb"] = pick(func(r round) float64 { return r.alloc }) / (1 << 20)
		metrics["max_rss_mb"] = maxRSSMB()
	}

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric)}
	var missing []string
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, error_rate %.4g (%d/%d)\n",
		*name, *seed, len(rounds), t.errorRate(), t.failed, t.attempted)
	for i, r := range rounds {
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v setup %.4fs wall %.3fs cpu %.3fs alloc %.1fMiB\n",
			i, r.traced, r.setup, r.wall, r.cpu, r.alloc/(1<<20))
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: reported as 0, because %s does not reach the layer or has too few samples for the percentile: %s\n",
			*name, strings.Join(missing, ", "))
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", t.failed, t.attempted)
	}
	return nil
}

// measure runs rounds until the measuring time is spent and the workload
// has measured enough. A traced run alternates untraced and traced rounds.
func measure(b bench, d time.Duration, traceMode bool, all *tracer, t *tally) ([]round, error) {
	minRounds := 3
	if traceMode {
		minRounds = 4
	}
	var rounds []round
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if traceMode && i%2 == 1 {
			tr = all
		}
		runtime.GC() // each round starts from the same heap, not the last round's garbage
		u0 := readUsage()
		if err := b.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		u1 := readUsage()
		if err := b.run(tr, t); err != nil {
			return nil, err
		}
		u2 := readUsage()
		if err := b.teardown(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		r := round{
			traced:  tr != nil,
			setup:   u1.at.Sub(u0.at).Seconds(),
			wall:    u2.at.Sub(u1.at).Seconds(),
			cpu:     (u2.cpu - u1.cpu).Seconds(),
			alloc:   float64(u2.alloc - u1.alloc),
			gcs:     float64(u2.gcCycles - u1.gcCycles),
			gcShare: (u2.gcCPU - u1.gcCPU) / (u2.cpu - u1.cpu).Seconds(),
		}
		rounds = append(rounds, r)
		el := time.Since(start)
		if el >= maxLoop || (el >= d && len(rounds) >= minRounds && b.enough()) {
			return rounds, nil
		}
	}
}

// traced fills the per-layer metrics: the workload's own, those of the
// serial decomposition pass, the runtime's over the untraced rounds, and
// the tracing overhead.
func traced(b bench, rounds []round, tr *tracer, t *tally, out map[string]float64) error {
	runtime.GC()
	n := tr.len()
	u0 := readUsage()
	root := tr.start(0, "decompose", "")
	if err := b.decompose(tr, root, t); err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	tr.end(root, work{})
	u1 := readUsage()
	spans := tr.since(n)
	dec := summarize(spans)
	for _, name := range []string{"workload.generate", "trace.validate", "engine.profile", "engine.replay", "system.simulate"} {
		if dec[name] == nil {
			dec[name] = &layerSum{}
		}
	}
	perS := func(n int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d.Seconds()
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	gen, val, prof, rep, sim := dec["workload.generate"], dec["trace.validate"], dec["engine.profile"], dec["engine.replay"], dec["system.simulate"]
	out["workload.generate.busy_s"] = gen.self.Seconds()
	out["workload.generate.refs_per_s"] = perS(gen.refs, gen.self)
	out["trace.validate.refs_per_s"] = perS(val.refs, val.self)
	out["engine.profile.calls"] = float64(prof.calls)
	out["engine.profile.busy_s"] = prof.self.Seconds()
	out["engine.profile.refs_per_s"] = perS(prof.refs, prof.self)
	out["engine.profile.events_per_kref"] = 1000 * ratio(prof.events, prof.refs)
	out["engine.profile.alloc_bytes_per_event"] = ratio(prof.alloc, prof.events)
	out["engine.replay.calls"] = float64(rep.calls)
	out["engine.replay.busy_s"] = rep.self.Seconds()
	out["engine.replay.events_per_s"] = perS(rep.events, rep.self)
	out["engine.replay.alloc_bytes_per_call"] = ratio(rep.alloc, int64(rep.calls))
	out["system.simulate.busy_s"] = sim.self.Seconds()
	out["system.simulate.refs_per_s"] = perS(sim.refs, sim.self)

	self := selfTimes(spans)
	var layered time.Duration
	for _, s := range spans {
		if s.ID != root {
			layered += self[s.ID]
		}
	}
	if cpu := u1.cpu - u0.cpu; cpu > 0 {
		out["bench.trace_coverage"] = layered.Seconds() / cpu.Seconds()
	}

	var wallOn, wallOff, gcs, gcShare []float64
	for _, r := range rounds {
		if r.traced {
			wallOn = append(wallOn, r.wall)
			continue
		}
		wallOff = append(wallOff, r.wall)
		gcs = append(gcs, r.gcs)
		gcShare = append(gcShare, r.gcShare)
	}
	out["bench.trace_overhead"] = median(wallOn) - median(wallOff)
	out["runtime.gc_cycles"] = median(gcs)
	out["runtime.gc_cpu_share"] = median(gcShare)
	b.layers(out, dec)

	names := make([]string, 0, len(dec))
	for k := range dec {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := dec[k]
		fmt.Fprintf(os.Stderr, "perfbench: decomposition %-18s calls %6d self %8.3fs\n", k, l.calls, l.self.Seconds())
	}
	return nil
}
