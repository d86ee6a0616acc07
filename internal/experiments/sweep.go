package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"time"

	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/system"
)

// ExecOptions tunes how a suite executes its sweeps: worker count, retry
// budget, per-cell and whole-sweep deadlines, and an optional checkpoint
// log that makes interrupted sweeps resumable. The zero value runs on
// GOMAXPROCS workers with no deadlines and no checkpoint.
type ExecOptions struct {
	// Workers bounds sweep concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Retries grants each failing cell this many extra attempts.
	Retries int
	// CellTimeout bounds one (organization × timing × trace) cell.
	CellTimeout time.Duration
	// SweepTimeout bounds one whole figure sweep.
	SweepTimeout time.Duration
	// Checkpoint, when set, records each completed cell and replays
	// completed cells on resume instead of recomputing them.
	Checkpoint *runner.Checkpoint
	// Metrics, when set, receives cell lifecycle events (counts, latency
	// histogram, in-flight gauge) and aggregate simulator throughput
	// (simulated references) from every sweep the suite runs. Nil keeps
	// all instrumentation out of the sweep entirely.
	Metrics *obs.Registry
	// Log, when set, carries the structured event stream: cell failures,
	// retries and checkpoint replays. Nil disables logging.
	Log *slog.Logger
	// Faults, when set, injects the plan's deterministic faults (forced
	// panics, delays, transient errors) around each cell, exercising the
	// runner's isolation, retry and checkpoint machinery end-to-end.
	Faults *faultinject.Plan
	// Instruments arms the passive observers in every freshly computed
	// cell; cells replayed from a checkpoint observe nothing. Results are
	// bit-identical, so checkpoint keys do not encode the option.
	//   - Check: a divergence is a permanent (never-retried) cell error.
	//   - Trace: replay and system cells carry their warm-window cycle
	//     attribution (aggregated under obs.MAttribPrefix), and the first
	//     completed cell's event ring is kept for Suite.EventTrace.
	//     Interval windows are stripped (see cellInstruments).
	//   - Explain: counters and system cells carry the warm-window report
	//     (aggregated under the explain_* names); replay cells share their
	//     profile's one report rather than repeat it per timing.
	Instruments system.Instruments
}

// SetExec configures sweep execution. Call before running figures; the
// options apply to every subsequent sweep.
func (s *Suite) SetExec(opts ExecOptions) { s.exec = opts }

func (s *Suite) runnerOptions() runner.Options {
	onStart, onDone := obs.RunnerHooks(s.exec.Metrics, s.exec.Log)
	return runner.Options{
		Workers:      s.exec.Workers,
		Retries:      s.exec.Retries,
		CellTimeout:  s.exec.CellTimeout,
		SweepTimeout: s.exec.SweepTimeout,
		Checkpoint:   s.exec.Checkpoint,
		OnCellStart:  onStart,
		OnCellDone:   onDone,
		OnSweepDone:  obs.SweepDone(s.exec.Log),
	}
}

// cellOut is the checkpointable product of one sweep cell. JSON encoding
// round-trips float64 exactly (shortest-form encoding), so a figure
// aggregated from replayed checkpoint entries is byte-identical to one
// computed in a single uninterrupted run.
type cellOut struct {
	ExecNs float64 `json:"exec_ns,omitempty"`
	CPR    float64 `json:"cpr,omitempty"`
	// Warm holds the measured-window counters (timing fields populated
	// for replay/system cells, zero for pure behavioural cells).
	Warm system.Counters `json:"warm"`
	// Attrib is the warm-window cycle attribution, present only when the
	// sweep's Trace instrument armed it (omitted otherwise, so checkpoint
	// bytes without instrumentation are unchanged).
	Attrib *simtrace.Attribution `json:"attrib,omitempty"`
	// Explain is the warm-window explainability report, present only when
	// the sweep's Explain instrument armed it (same checkpoint-byte
	// discipline as Attrib) and only on counters/system cells — replay
	// cells would repeat their shared profile's report once per timing.
	Explain *explain.Report `json:"explain,omitempty"`
}

// cellInstruments returns the sweep's instruments as a cell arms them.
// Interval windows are stripped, because a replay compresses hit runs into
// gaps and has no per-couplet point to sample, so a cell reports
// attribution and events only; a Trace that arms neither is dropped.
func (s *Suite) cellInstruments() system.Instruments {
	in := s.exec.Instruments
	if in.Trace != nil {
		opts := *in.Trace
		opts.IntervalRefs = 0
		in.Trace = nil
		if opts.Attrib || opts.Events {
			in.Trace = &opts
		}
	}
	return in
}

// offerEventTrace retains the first completed recorder with an armed event
// ring as the sweep's representative timeline.
func (s *Suite) offerEventTrace(rec *simtrace.Recorder) {
	if !rec.EventsOn() {
		return
	}
	s.evMu.Lock()
	if s.evRec == nil {
		s.evRec = rec
	}
	s.evMu.Unlock()
}

// EventTrace returns a representative timeline of the suite's sweeps: the
// recorder of the first freshly computed cell that completed with the
// event ring armed (which cell that is depends on worker scheduling), or
// nil when the sweep's Trace instrument never armed events or every cell
// was replayed from a checkpoint.
func (s *Suite) EventTrace() *simtrace.Recorder {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.evRec
}

// recordExplain aggregates one freshly computed explainability report into
// the metrics registry's explain_* counters. Called once per fresh
// behavioural pass and once per fresh full-system cell — never per replay
// cell, which shares its profile's already-counted report — so the rollup
// counts each simulation exactly once however many timings reuse it.
func (s *Suite) recordExplain(rep *explain.Report) {
	m := s.exec.Metrics
	if m == nil || rep == nil {
		return
	}
	c3 := rep.Total3C()
	m.Counter(obs.MExplainCells).Add(1)
	m.Counter(obs.MExplainCompulsory).Add(c3.Compulsory)
	m.Counter(obs.MExplainCapacity).Add(c3.Capacity)
	m.Counter(obs.MExplainConflict).Add(c3.Conflict)
}

// attribOut packages a finished recorder's warm-window attribution for the
// cell output and offers its event ring as the representative timeline.
func (s *Suite) attribOut(rec *simtrace.Recorder) *simtrace.Attribution {
	if rec == nil {
		return nil
	}
	s.offerEventTrace(rec)
	if !rec.AttribOn() {
		return nil
	}
	a := rec.AttributionWarm()
	return &a
}

// traceFingerprint identifies trace i for checkpoint keys: a content hash
// over the name, warm boundary and every reference, so a checkpoint from a
// different trace set (or scale) never replays into this one.
func (s *Suite) traceFingerprint(i int) string {
	s.fpOnce.Do(func() {
		s.fps = make([]string, len(s.Traces))
		for k, t := range s.Traces {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d|%d|", t.Name, t.WarmStart, len(t.Refs))
			var buf [8]byte
			for _, r := range t.Refs {
				buf[0] = byte(r.Addr)
				buf[1] = byte(r.Addr >> 8)
				buf[2] = byte(r.Addr >> 16)
				buf[3] = byte(r.Addr >> 24)
				buf[4] = r.PID
				buf[5] = byte(r.Kind)
				h.Write(buf[:6])
			}
			s.fps[k] = fmt.Sprintf("%s-%016x", t.Name, h.Sum64())
		}
	})
	return s.fps[i]
}

// Result evaluates the organization at tm on trace i: the behavioural
// profile from its single-flight slot, then the timing replay shared
// across cycle times that quantize alike. A non-nil rec records the replay,
// which then runs alone. ctx is consulted before each phase.
func (s *Suite) Result(ctx context.Context, i int, org engine.Org, tm engine.Timing, rec *simtrace.Recorder) (system.Result, error) {
	if err := ctx.Err(); err != nil {
		return system.Result{}, err
	}
	e := s.profileEntry(i, org)
	if e.err != nil {
		return system.Result{}, e.err
	}
	if err := ctx.Err(); err != nil {
		return system.Result{}, err
	}
	return s.replay(e, tm, rec)
}

// replayCell builds the runner cell for one (organization × timing ×
// trace) unit, computed by Result. The output carries execution time,
// cycles per reference and the warm-window counters.
func (s *Suite) replayCell(i int, org engine.Org, tm engine.Timing) runner.Cell[cellOut] {
	return runner.Cell[cellOut]{
		Key: runner.Key("replay/v1", s.traceFingerprint(i), s.Scale, org, tm),
		Run: func(ctx context.Context) (cellOut, error) {
			rec := system.Instruments{Trace: s.cellInstruments().Trace}.Arm().Recorder()
			res, err := s.Result(ctx, i, org, tm, rec)
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{ExecNs: res.ExecTimeNs(), CPR: res.Warm.CyclesPerRef(),
				Warm: res.Warm, Attrib: s.attribOut(rec)}, nil
		},
	}
}

// countersCell builds the runner cell for the timing-independent
// behavioural statistics of one (organization × trace) unit.
func (s *Suite) countersCell(i int, org engine.Org) runner.Cell[cellOut] {
	return runner.Cell[cellOut]{
		Key: runner.Key("counters/v1", s.traceFingerprint(i), s.Scale, org),
		Run: func(ctx context.Context) (cellOut, error) {
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			e := s.profileEntry(i, org)
			if e.err != nil {
				return cellOut{}, e.err
			}
			return cellOut{Warm: e.p.WarmCounters(), Explain: e.exp}, nil
		},
	}
}

// systemCell builds the runner cell for one full single-phase simulation
// (multilevel hierarchies and other configurations the engine does not
// cover).
func (s *Suite) systemCell(i int, cfg system.Config) runner.Cell[cellOut] {
	return runner.Cell[cellOut]{
		Key: runner.Key("system/v1", s.traceFingerprint(i), s.Scale, cfg),
		Run: func(ctx context.Context) (cellOut, error) {
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			cfg := cfg
			cfg.Instruments = s.cellInstruments()
			sys, err := system.New(cfg)
			if err != nil {
				return cellOut{}, err
			}
			res, err := sys.Run(s.Traces[i])
			if err != nil {
				return cellOut{}, err
			}
			var exp *explain.Report
			if sys.Explainer().On() {
				exp = sys.Explainer().ReportWarm()
				s.recordExplain(exp)
			}
			return cellOut{ExecNs: res.ExecTimeNs(), CPR: res.Warm.CyclesPerRef(),
				Warm: res.Warm, Attrib: s.attribOut(sys.Recorder()), Explain: exp}, nil
		},
	}
}

// runCells executes a sweep through the hardened runner and returns the
// cell outputs in input order, or a *runner.SweepError naming every failed
// or cancelled cell.
func (s *Suite) runCells(ctx context.Context, cells []runner.Cell[cellOut]) ([]cellOut, error) {
	cells = s.instrument(cells)
	// Fault wrappers go outermost so an injected panic or delay hits the
	// runner exactly as a real one would, outside all instrumentation.
	cells = faultinject.Wrap(s.exec.Faults, cells)
	return runner.Values(runner.Run(ctx, cells, s.runnerOptions()))
}

// instrument announces the sweep's cells to the registry and wraps each
// cell to count its simulated warm-window references — the aggregate
// throughput metric. Instrumentation stays at cell granularity: the wrapper
// runs once per cell, never inside the simulator's inner loop. No-op
// without a registry.
func (s *Suite) instrument(cells []runner.Cell[cellOut]) []runner.Cell[cellOut] {
	m := s.exec.Metrics
	if m == nil {
		return cells
	}
	m.Counter(obs.MCellsPlanned).Add(int64(len(cells)))
	refs := m.Counter(obs.MSimRefs)
	out := make([]runner.Cell[cellOut], len(cells))
	for i, c := range cells {
		run := c.Run
		out[i] = runner.Cell[cellOut]{Key: c.Key, Run: func(ctx context.Context) (cellOut, error) {
			v, err := run(ctx)
			if err == nil {
				refs.Add(v.Warm.Refs)
				if v.Attrib != nil {
					m.Counter(obs.MAttribCells).Add(1)
					for _, comp := range v.Attrib.Components() {
						m.Counter(obs.MAttribPrefix + comp.Name).Add(comp.Cycles)
					}
				}
			}
			return v, err
		}}
	}
	return out
}

// Fingerprints returns the per-trace content fingerprints the checkpoint
// keys embed, for run manifests: two runs with equal fingerprints swept the
// same stimulus.
func (s *Suite) Fingerprints() []string {
	out := make([]string, len(s.Traces))
	for i := range s.Traces {
		out[i] = s.traceFingerprint(i)
	}
	return out
}

// replayCellsFor appends one replay cell per trace for the organization
// and timing.
func (s *Suite) replayCellsFor(cells []runner.Cell[cellOut], org engine.Org, tm engine.Timing) []runner.Cell[cellOut] {
	for i := range s.Traces {
		cells = append(cells, s.replayCell(i, org, tm))
	}
	return cells
}

// counterCellsFor appends one counters cell per trace for the organization.
func (s *Suite) counterCellsFor(cells []runner.Cell[cellOut], org engine.Org) []runner.Cell[cellOut] {
	for i := range s.Traces {
		cells = append(cells, s.countersCell(i, org))
	}
	return cells
}
