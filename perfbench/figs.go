package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// figs runs one paperfigs sweep per round on a fresh experiments.Suite, so
// its profile cache starts cold every round, as in every paperfigs process:
// the Fig 3-2 grid and the analyses derived from it.
type figs struct {
	seed uint64
	reg  *obs.Registry

	// round counts set-ups; each round draws its own traces.
	round  int
	traces []*trace.Trace
	suite  *experiments.Suite

	// grid and cpr are the last round's ExecNs and CyclesPerRef grids.
	// first is the first round's ExecNs digest, the one recorded for the
	// default and held-out seeds.
	grid, cpr [][]float64
	first     string

	// Per traced round.
	sweepBusy, sweepCPU, analysisBusy, cells, attempts []float64
	failedCells                                        int
}

func newFigs(seed uint64) *figs {
	return &figs{seed: seed, reg: obs.NewRegistry()}
}

func (f *figs) name() string { return "figs-speedsize" }

// specs returns the Table 1 catalog with the benchmark seed and the round
// mixed into every workload's generator seed. Each round sweeps its own
// draw of the eight traces, so a run's median covers many draws and
// depends little on any one. Round 0 of seed 0 is the catalog as
// paperfigs uses it.
func specs(seed uint64, round int) []workload.Spec {
	out := append([]workload.Spec(nil), workload.Catalog...)
	for i := range out {
		out[i].Seed += seed*0x9E3779B97F4A7C15 + uint64(round)*0xBF58476D1CE4E5B9
	}
	return out
}

// generate builds and validates the eight traces, with one span per call.
func generate(tr *tracer, parent int, seed uint64, round int) ([]*trace.Trace, error) {
	sp := specs(seed, round)
	out := make([]*trace.Trace, len(sp))
	for i, s := range sp {
		id := tr.start(parent, "workload.generate", s.Name)
		t, err := s.Generate(scale)
		if err != nil {
			return nil, err
		}
		tr.end(id, work{refs: int64(len(t.Refs))})
		id = tr.start(parent, "trace.validate", s.Name)
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trace %s: %w", t.Name, err)
		}
		tr.end(id, work{refs: int64(len(t.Refs))})
		out[i] = t
	}
	return out, nil
}

func (f *figs) setup(tr *tracer) error {
	root := tr.start(0, "setup", "")
	traces, err := generate(tr, root, f.seed, f.round)
	if err != nil {
		return err
	}
	f.round++
	f.traces = traces
	f.suite = experiments.NewSuiteWithTraces(traces)
	f.suite.SetExec(experiments.ExecOptions{Workers: workers, Metrics: f.reg})
	tr.end(root, work{})
	return nil
}

func (f *figs) counter(name string) int64 { return f.reg.Counter(name).Value() }

func (f *figs) run(tr *tracer, t *tally) error {
	ctx := context.Background()
	planned0, done0, failed0 := f.counter(obs.MCellsPlanned), f.counter(obs.MCellsDone), f.counter(obs.MCellsFailed)
	u0 := readUsage()
	id := tr.start(0, "experiments.sweep", f.name())
	pg, err := f.suite.SpeedSizeGrid(ctx, experiments.TotalSizesKB, experiments.CycleTimesNs, 1)
	tr.end(id, work{})
	if err == nil {
		a := tr.start(0, "analysis", "")
		experiments.RunFigure32(pg)
		experiments.RunFigure33(pg)
		_, err34 := experiments.RunFigure34(pg)
		t.check(err34 == nil, fmt.Sprintf("figure 3-4: %v", err34))
		_, errT3 := experiments.RunTable3(pg, nil)
		t.check(errT3 == nil, fmt.Sprintf("table 3: %v", errT3))
		tr.end(a, work{})
		if tr != nil {
			f.analysisBusy = append(f.analysisBusy, tr.seconds(a))
		}
	}
	u1 := readUsage()
	planned := int(f.counter(obs.MCellsPlanned) - planned0)
	t.add(planned, sweepFailures(err, planned), fmt.Sprintf("sweep: %v", err))
	if tr != nil {
		f.sweepBusy = append(f.sweepBusy, tr.seconds(id))
		f.sweepCPU = append(f.sweepCPU, (u1.cpu - u0.cpu).Seconds())
		f.cells = append(f.cells, float64(planned))
		failed := f.counter(obs.MCellsFailed) - failed0
		f.attempts = append(f.attempts, float64(f.counter(obs.MCellsDone)-done0+failed))
		f.failedCells += int(failed)
	}
	if err != nil {
		return nil
	}
	if f.first == "" {
		f.first = digest(pg.ExecNs)
	}
	f.grid, f.cpr = pg.ExecNs, pg.CyclesPerRef
	return nil
}

func (f *figs) teardown() error {
	f.suite = nil
	return nil
}

func (f *figs) enough() bool { return true }

// The paper's base organization and memory, as experiments builds them:
// split direct-mapped random-replacement write-back caches with 4-word
// blocks, and the default memory behind a 4-entry write buffer.
func orgFor(totalKB int) engine.Org {
	cfg := cache.Config{
		SizeWords:   totalKB * 1024 / 4 / 2,
		BlockWords:  4,
		Assoc:       1,
		Replacement: cache.Random,
		WritePolicy: cache.WriteBack,
		Seed:        1988,
	}
	return engine.Org{ICache: cfg, DCache: cfg}
}

func baseTiming(cycleNs int) engine.Timing {
	return engine.Timing{CycleNs: cycleNs, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
}

// check compares the first round's grid with the one recorded for this
// seed, and a seeded sample of the last round's grid points with the
// single-phase reference simulator (system.Simulate) that the engine's two
// passes are cross-validated against.
func (f *figs) check(t *tally) error {
	if f.grid == nil {
		t.check(false, "no round produced a grid")
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d grid digest %s\n", f.name(), f.seed, f.first)
	if want, ok := expected[f.name()][f.seed]; ok {
		t.check(f.first == want, fmt.Sprintf("grid digest %s, recorded %s", f.first, want))
	}
	rng := rand.New(rand.NewPCG(f.seed, 0xC4EC))
	for k := 0; k < referenceSamples; k++ {
		i, j := rng.IntN(len(f.grid)), rng.IntN(len(f.grid[0]))
		vals := make([]float64, len(f.traces))
		for n, tr := range f.traces {
			org, tm := orgFor(experiments.TotalSizesKB[i]), baseTiming(experiments.CycleTimesNs[j])
			res, err := system.Simulate(systemConfig(org, tm), tr)
			if err != nil {
				return err
			}
			vals[n] = res.ExecTimeNs()
		}
		got, err := stats.GeoMean(vals)
		if err != nil {
			return err
		}
		t.check(got == f.grid[i][j], fmt.Sprintf("grid[%d][%d] = %v, reference %v", i, j, f.grid[i][j], got))
	}
	return nil
}

func systemConfig(org engine.Org, tm engine.Timing) system.Config {
	return system.Config{
		CycleNs:       tm.CycleNs,
		ICache:        org.ICache,
		DCache:        org.DCache,
		Unified:       org.Unified,
		WriteBufDepth: tm.WriteBufDepth,
		Mem:           tm.Mem,
	}
}

// decompose repeats the last round serially, one call per layer: generate
// and validate each trace, build each profile, replay each timing. Its
// results must equal the sweep's bit for bit.
func (f *figs) decompose(tr *tracer, root int, t *tally) error {
	sizes, cycles := experiments.TotalSizesKB, experiments.CycleTimesNs
	traces, err := generate(tr, root, f.seed, f.round-1)
	if err != nil {
		return err
	}
	// vals[i][j][n] is trace n's value at grid point (i, j); cprs likewise.
	vals, cprs := cube(len(sizes), len(cycles), len(traces)), cube(len(sizes), len(cycles), len(traces))
	for n, tc := range traces {
		t.check(sameRefs(tc, f.traces[n]), "regenerated trace "+tc.Name+" differs")
		for si, kb := range sizes {
			p, events, err := profile(tr, root, orgFor(kb), tc)
			if err != nil {
				return err
			}
			for ci, cy := range cycles {
				id := tr.start(root, "engine.replay", fmt.Sprintf("%s/%dKB@%dns", tc.Name, kb, cy))
				a0 := heapAllocs()
				res, err := p.Replay(baseTiming(cy))
				if err != nil {
					return err
				}
				tr.end(id, work{events: events, alloc: int64(heapAllocs() - a0)})
				vals[si][ci][n] = res.ExecTimeNs()
				cprs[si][ci][n] = res.Warm.CyclesPerRef()
			}
		}
	}
	for i := range vals {
		for j := range vals[i] {
			v, err := stats.GeoMean(vals[i][j])
			if err != nil {
				return err
			}
			c, err := stats.GeoMean(cprs[i][j])
			if err != nil {
				return err
			}
			same := v == f.grid[i][j] && c == f.cpr[i][j]
			t.check(same, fmt.Sprintf("decomposition differs at grid[%d][%d]: %v vs sweep %v", i, j, v, f.grid[i][j]))
		}
	}
	return nil
}

// profile runs one behavioural pass in an engine.profile span and returns
// the profile with its miss-event count.
func profile(tr *tracer, root int, org engine.Org, tc *trace.Trace) (*engine.Profile, int64, error) {
	id := tr.start(root, "engine.profile", fmt.Sprintf("%s/%dKB/%dway", tc.Name, org.DCache.SizeWords*8/1024, org.DCache.Assoc))
	a0 := heapAllocs()
	p, err := engine.BuildProfile(org, tc)
	if err != nil {
		return nil, 0, err
	}
	alloc := int64(heapAllocs() - a0)
	tr.end(id, work{refs: int64(len(tc.Refs)), alloc: alloc})
	// Events walks the profile, so it is counted after the span ends.
	events := int64(p.Events())
	tr.note(id, work{events: events})
	return p, events, nil
}

func cube(a, b, c int) [][][]float64 {
	out := make([][][]float64, a)
	for i := range out {
		out[i] = make([][]float64, b)
		for j := range out[i] {
			out[i][j] = make([]float64, c)
		}
	}
	return out
}

func sameRefs(a, b *trace.Trace) bool {
	if a.Name != b.Name || a.WarmStart != b.WarmStart || len(a.Refs) != len(b.Refs) {
		return false
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			return false
		}
	}
	return true
}

func (f *figs) layers(out map[string]float64, dec map[string]*layerSum) {
	out["experiments.sweep.busy_s"] = median(f.sweepBusy)
	out["experiments.cells"] = median(f.cells)
	lat := f.reg.Timing(obs.MCellLatency)
	if reportable(int(lat.Count()), 0.95) {
		out["experiments.cell_latency_ms.p50"] = float64(lat.Percentile(0.5)) / 1e6
		out["experiments.cell_latency_ms.p95"] = float64(lat.Percentile(0.95)) / 1e6
	}
	out["runner.cell_attempts"] = median(f.attempts)
	out["runner.cells_failed"] = float64(f.failedCells)
	out["analysis.busy_s"] = median(f.analysisBusy)
	if cpu := median(f.sweepCPU); cpu > 0 {
		engineBusy := dec["engine.profile"].self + dec["engine.replay"].self
		out["experiments.orchestration_share"] = 1 - engineBusy.Seconds()/cpu
	}
}
