// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns typed rows; the cmd/paperfigs
// binary renders them, the benchmark harness times them, and the
// integration tests assert the paper's qualitative claims against them.
//
// All numerical results are geometric means of warm-start runs over the
// eight Table 1 traces, exactly as in the paper. Behavioural profiles are
// cached per (organization × trace), so the cycle-time sweeps of Figures
// 3-2 through 4-5 reuse the expensive behavioural pass through the cheap
// timing replay — the same two-phase strategy the paper's simulation farm
// used. A size sweep's direct-mapped organizations go further and share
// one behavioural pass per trace (engine.BuildProfiles).
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultScale is the fraction of the paper's trace lengths used when the
// caller does not choose one. 0.25 keeps the full footprints (footprints
// never scale) while holding the complete figure suite to around a minute.
const DefaultScale = 0.25

// Standard design-space axes from the paper.
var (
	// TotalSizesKB: the two caches were varied together from 2 KB
	// through 2 MB each, so the total ranges from 4 KB to 4 MB.
	TotalSizesKB = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	// CycleTimesNs: the CPU/cache cycle time range of Section 3.
	CycleTimesNs = []int{20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80}
	// BlockSizesW: the block-size sweep of Section 5.
	BlockSizesW = []int{2, 4, 8, 16, 32, 64, 128}
	// LatenciesNs: Section 5 varies the uniform memory latency from a
	// very aggressive 100 ns to a very conservative 420 ns.
	LatenciesNs = []int{100, 180, 260, 340, 420}
	// TransferRates: four words per cycle down to one word per four.
	TransferRates = []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4}
	// SetSizes: direct mapped through eight-way.
	SetSizes = []int{1, 2, 4, 8}
)

// Suite holds the generated traces and the profile cache. The profile
// cache is safe for concurrent use: sweep cells running on the worker pool
// share behavioural profiles through it, with single-flight construction
// so concurrent cells needing the same profile build it exactly once.
type Suite struct {
	Scale  float64
	Traces []*trace.Trace

	exec ExecOptions

	mu       sync.Mutex
	profiles map[profileKey]*profileEntry
	// chains maps each organization a sweep registered with
	// registerChain to the chain one behavioural pass builds it with.
	chains map[engine.Org]*chainSet

	fpOnce sync.Once
	fps    []string // per-trace checkpoint fingerprints

	// evMu guards evRec, the first freshly computed cell's recorder with an
	// armed event ring — the sweep's representative timeline, exported via
	// EventTrace.
	evMu  sync.Mutex
	evRec *simtrace.Recorder
}

// profileEntry is a single-flight slot in the profile cache. It also holds
// the profile's shared replays: one single-flight slot per timing class.
type profileEntry struct {
	once sync.Once
	p    *engine.Profile
	// exp is the warm-window explainability report of the behavioural
	// pass, nil unless ExecOptions.Explain armed the recorder.
	exp *explain.Report
	err error

	mu      sync.Mutex
	replays map[replayClass]*replayEntry
}

// replayClass is everything an uninstrumented replay's result depends on
// besides the profile: the memory timing quantized at the cell's cycle
// time, with the cycle time itself cleared, and the write buffer depth.
// The cycle time only scales cycles into nanoseconds (Result.CycleNs), so
// cycle times that quantize alike — the treads of Fig 3-2's staircase —
// replay once and share the counters.
type replayClass struct {
	mem   mem.Timing
	depth int
}

// replayEntry is a single-flight slot holding one shared replay.
type replayEntry struct {
	once sync.Once
	res  system.Result
	err  error
}

// slotPanic is the error a single-flight slot keeps when its computation
// panicked. Retrying cannot help, as the slot is spent.
type slotPanic struct{ val any }

func (e *slotPanic) Error() string {
	return fmt.Sprintf("experiments: panic in shared computation: %v", e.val)
}

func (e *slotPanic) Permanent() bool { return true }

// Unwrap exposes a panic value that is itself an error.
func (e *slotPanic) Unwrap() error {
	err, _ := e.val.(error)
	return err
}

// singleFlight runs fn through once and stores its error in *errp. A panic
// inside fn becomes that error: sync.Once would otherwise mark the slot
// done with neither a value nor an error for every later caller.
func singleFlight(once *sync.Once, errp *error, fn func() error) {
	once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				*errp = &slotPanic{val: v}
			}
		}()
		*errp = fn()
	})
}

type profileKey struct {
	traceIdx int
	org      engine.Org
}

// chainSet is a registered set of organizations whose profiles one
// behavioural pass per trace builds together (engine.BuildProfiles).
type chainSet struct {
	orgs   []engine.Org
	passes []chainPass // one single-flight slot per trace
}

type chainPass struct {
	once     sync.Once
	profiles []*engine.Profile // in chainSet.orgs order
	err      error
}

// NewSuite generates the eight Table 1 workloads at the given scale
// (DefaultScale if 0). A negative scale is an error.
func NewSuite(scale float64) (*Suite, error) {
	if scale == 0 {
		scale = DefaultScale
	}
	traces, err := workload.GenerateAll(scale)
	if err != nil {
		return nil, err
	}
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: generated trace %s: %w", t.Name, err)
		}
	}
	return &Suite{
		Scale:    scale,
		Traces:   traces,
		profiles: make(map[profileKey]*profileEntry),
	}, nil
}

// MustNewSuite is NewSuite that panics on error, for tests and benchmarks
// with known-good scales.
func MustNewSuite(scale float64) *Suite {
	s, err := NewSuite(scale)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSuiteWithTraces builds a suite over caller-provided traces (tests use
// tiny synthetic ones).
func NewSuiteWithTraces(traces []*trace.Trace) *Suite {
	return &Suite{Scale: 1, Traces: traces, profiles: make(map[profileKey]*profileEntry)}
}

// l1Config builds the standard split-cache configuration for one side:
// direct-mapped random-replacement write-back with no fetch on write miss,
// the paper's base organization, at the given geometry.
func l1Config(sizeWords, blockWords, assoc int) cache.Config {
	return cache.Config{
		SizeWords:   sizeWords,
		BlockWords:  blockWords,
		Assoc:       assoc,
		Replacement: cache.Random,
		WritePolicy: cache.WriteBack,
		Seed:        1988,
	}
}

// OrgFor returns the split I/D organization with the given total size in
// KB, block size in words and set size.
func OrgFor(totalKB, blockWords, assoc int) engine.Org {
	perCacheWords := totalKB * 1024 / 4 / 2
	cfg := l1Config(perCacheWords, blockWords, assoc)
	return engine.Org{ICache: cfg, DCache: cfg}
}

// profileEntry returns the cached behavioural profile slot of the
// organization against trace i, building the profile on first use. Safe
// for concurrent callers: the expensive behavioural pass runs exactly once
// per key, with contending cells blocking on the builder rather than
// duplicating it. Besides the profile, the slot carries the behavioural
// pass's warm-window explainability report (nil unless
// ExecOptions.Explain is set), so the report exists exactly once per
// (organization × trace) however many replay cells share the profile.
func (s *Suite) profileEntry(i int, org engine.Org) *profileEntry {
	key := profileKey{traceIdx: i, org: org}
	s.mu.Lock()
	e, ok := s.profiles[key]
	if !ok {
		e = &profileEntry{}
		s.profiles[key] = e
	}
	cs := s.chains[org]
	s.mu.Unlock()
	singleFlight(&e.once, &e.err, func() error {
		// The selfcheck oracle and the explain recorder must observe every
		// access of every cache, so they keep one organization per pass.
		if cs != nil && s.exec.SelfCheck == nil && s.exec.Explain == nil {
			p, err := s.chainProfile(cs, i, org)
			e.p = p
			return err
		}
		var rec *explain.Recorder
		if s.exec.Explain != nil {
			rec = explain.New(*s.exec.Explain)
		}
		p, err := engine.BuildProfileExplained(org, s.Traces[i], s.exec.SelfCheck, rec)
		if err != nil {
			return fmt.Errorf("experiments: profiling %s against %s: %w",
				org.DCache.String(), s.Traces[i].Name, err)
		}
		s.countPass(1)
		e.p = p
		if rec.On() {
			e.exp = rec.ReportWarm()
			s.recordExplain(e.exp)
		}
		return nil
	})
	return e
}

// registerChain declares that a sweep's cells will need the profiles of
// these organizations, which form one inclusion chain: direct-mapped,
// whole-block caches that differ only in size. The first cell that needs
// any of them on a trace then builds them all in one pass.
func (s *Suite) registerChain(orgs []engine.Org) {
	cs := &chainSet{orgs: orgs, passes: make([]chainPass, len(s.Traces))}
	s.mu.Lock()
	if s.chains == nil {
		s.chains = make(map[engine.Org]*chainSet)
	}
	for _, org := range orgs {
		s.chains[org] = cs
	}
	s.mu.Unlock()
}

// chainProfile returns the profile of org from the chain's pass over trace
// i, running the pass on first use.
func (s *Suite) chainProfile(cs *chainSet, i int, org engine.Org) (*engine.Profile, error) {
	ps := &cs.passes[i]
	singleFlight(&ps.once, &ps.err, func() (err error) {
		ps.profiles, err = engine.BuildProfiles(cs.orgs, s.Traces[i])
		if err != nil {
			return fmt.Errorf("experiments: profiling a %d-organization chain against %s: %w",
				len(cs.orgs), s.Traces[i].Name, err)
		}
		s.countPass(len(cs.orgs))
		return nil
	})
	if ps.err != nil {
		return nil, ps.err
	}
	for n, o := range cs.orgs {
		if o == org {
			return ps.profiles[n], nil
		}
	}
	panic("experiments: organization missing from its chain")
}

// countPass records one behavioural pass that built n profiles.
func (s *Suite) countPass(n int) {
	if s.exec.Metrics != nil {
		s.exec.Metrics.Counter(obs.MProfilePasses).Add(1)
		s.exec.Metrics.Counter(obs.MProfilesBuilt).Add(int64(n))
	}
}

// replay runs the timing phase of a built profile slot at tm for one cell.
// Uninstrumented replays are shared: the first cell of a timing class
// replays, and every cell of the class reads that result stamped with its
// own cycle time. A cell that arms the selfcheck oracle or a recorder
// replays alone, because its checks and attribution belong to it.
func (s *Suite) replay(e *profileEntry, tm engine.Timing, rec *simtrace.Recorder) (system.Result, error) {
	if rec != nil || s.exec.SelfCheck != nil || tm.Validate() != nil {
		// An invalid timing, too, replays alone and reports its error.
		s.count(obs.MReplaysRun)
		return e.p.ReplayTraced(tm, s.exec.SelfCheck, rec)
	}
	q := tm.Mem.MustQuantize(tm.CycleNs)
	q.CycleNs = 0
	class := replayClass{mem: q, depth: tm.WriteBufDepth}
	e.mu.Lock()
	r, ok := e.replays[class]
	if !ok {
		if e.replays == nil {
			e.replays = make(map[replayClass]*replayEntry)
		}
		r = &replayEntry{}
		e.replays[class] = r
	}
	e.mu.Unlock()
	ran := false
	singleFlight(&r.once, &r.err, func() (err error) {
		ran = true
		r.res, err = e.p.Replay(tm)
		return err
	})
	if ran {
		s.count(obs.MReplaysRun)
	} else {
		s.count(obs.MReplaysShared)
	}
	res := r.res
	res.CycleNs = tm.CycleNs
	return res, r.err
}

// count adds one to the named registry counter, if a registry is attached.
func (s *Suite) count(name string) {
	if s.exec.Metrics != nil {
		s.exec.Metrics.Counter(name).Add(1)
	}
}

// replayAll replays the organization at the timing for every trace through
// the sweep runner and returns the geometric means of execution time (ns)
// and cycles per reference.
func (s *Suite) replayAll(ctx context.Context, org engine.Org, tm engine.Timing) (execNs, cpr float64, err error) {
	outs, err := s.runCells(ctx, s.replayCellsFor(nil, org, tm))
	if err != nil {
		return 0, 0, err
	}
	return geoExecCPR(outs)
}

// geoExecCPR aggregates one trace-group of cell outputs geometrically.
// Outputs arrive in trace order (the runner preserves input order), so the
// aggregation is deterministic regardless of completion order.
func geoExecCPR(outs []cellOut) (execNs, cpr float64, err error) {
	execs := make([]float64, len(outs))
	cprs := make([]float64, len(outs))
	for i, o := range outs {
		execs[i] = o.ExecNs
		cprs[i] = o.CPR
	}
	if execNs, err = stats.GeoMean(execs); err != nil {
		return 0, 0, err
	}
	if cpr, err = stats.GeoMean(cprs); err != nil {
		return 0, 0, err
	}
	return execNs, cpr, nil
}

// baseTiming is the paper's base memory at the given cycle time with the
// standard four-entry write buffer.
func baseTiming(cycleNs int) engine.Timing {
	return engine.Timing{CycleNs: cycleNs, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
}

// Table1 regenerates the trace-description table from the synthesized
// workloads.
func (s *Suite) Table1() []trace.Summary {
	out := make([]trace.Summary, len(s.Traces))
	for i, t := range s.Traces {
		out[i] = trace.Summarize(t)
	}
	return out
}

// Table2 regenerates the memory access cycle count table directly from the
// memory model.
type Table2Row struct {
	CycleNs        int
	ReadCycles     int
	WriteCycles    int
	RecoveryCycles int
}

// Table2 evaluates the default memory at the paper's cycle times for
// four-word blocks.
func Table2() []Table2Row {
	cfg := mem.DefaultConfig()
	cycles := []int{20, 24, 28, 32, 36, 40, 48, 52, 60}
	out := make([]Table2Row, len(cycles))
	for i, cy := range cycles {
		tm := cfg.MustQuantize(cy)
		out[i] = Table2Row{
			CycleNs:        cy,
			ReadCycles:     tm.ReadCycles(4),
			WriteCycles:    tm.WriteBusyCycles(4),
			RecoveryCycles: tm.RecoveryCycles,
		}
	}
	return out
}

// SimulateSystem runs the full single-phase simulator for configurations
// the engine does not cover (multilevel hierarchies, early-continue fetch
// policies) through the sweep runner, aggregating geometrically over the
// suite's traces.
func (s *Suite) SimulateSystem(ctx context.Context, cfg system.Config) (execNs, cpr float64, err error) {
	cells := make([]runner.Cell[cellOut], 0, len(s.Traces))
	for i := range s.Traces {
		cells = append(cells, s.systemCell(i, cfg))
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return 0, 0, err
	}
	return geoExecCPR(outs)
}
