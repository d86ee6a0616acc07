package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/simtrace"
	"repro/internal/writebuf"
)

// Instruments selects the passive observers of a run, each off when nil.
// None of them changes a simulated cycle or counter.
type Instruments struct {
	// Check runs the reference model in lockstep with the L1 caches and
	// write buffer; the first divergence aborts the run as a typed
	// *check.Divergence error.
	Check *check.Options
	// Trace arms the simtrace recorder: cycle attribution, interval
	// windows and the timeline event ring.
	Trace *simtrace.Options
	// Explain arms the explain recorder (3C classification, reuse
	// distances, set pressure) when it arms at least one instrument.
	Explain *explain.Options
}

// Observers is one run's armed instruments, built by Arm or assembled
// around a recorder the caller already holds. Both simulator cores attach
// them through the same methods: Name and L1 at the first-level caches,
// Buf at the L1 write buffer, MarkWarm at the warm boundary and Finish at
// the end. The engine's behavioural pass attaches only L1 and its timing
// replay only Buf, so each phase is handed the observers it drives. A nil
// *Observers observes nothing: every method is a no-op on it.
type Observers struct {
	Check   *check.Checker
	Trace   *simtrace.Recorder
	Explain *explain.Recorder
}

// Arm builds one run's observers, or returns nil when the instruments arm
// nothing. A non-nil Explain that arms no instrument builds no recorder,
// so the run takes the same code path as with Explain nil.
func (in Instruments) Arm() *Observers {
	explained := in.Explain != nil && in.Explain.Any()
	if in.Check == nil && in.Trace == nil && !explained {
		return nil
	}
	o := &Observers{}
	if in.Check != nil {
		o.Check = check.New(in.Check)
	}
	if in.Trace != nil {
		o.Trace = simtrace.New(*in.Trace)
	}
	if explained {
		o.Explain = explain.New(*in.Explain)
	}
	return o
}

// Name labels the oracle's divergence reports with the run's trace, its
// data cache and, for a timing replay, its cycle time (0 omits it).
func (o *Observers) Name(traceName string, dcache cache.Config, cycleNs int) {
	if o == nil || o.Check == nil {
		return
	}
	ctx := fmt.Sprintf("trace=%s dcache=%v", traceName, dcache)
	if cycleNs > 0 {
		ctx += fmt.Sprintf(" cycle=%dns", cycleNs)
	}
	o.Check.SetContext(ctx)
}

// Checker returns the armed reference model, or nil.
func (o *Observers) Checker() *check.Checker {
	if o == nil {
		return nil
	}
	return o.Check
}

// Recorder returns the armed simtrace recorder, or nil.
func (o *Observers) Recorder() *simtrace.Recorder {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Explainer returns the armed explain recorder, or nil.
func (o *Observers) Explainer() *explain.Recorder {
	if o == nil {
		return nil
	}
	return o.Explain
}

// L1Cache is the cache interface both cores drive: *cache.Cache, or its
// *check.Shadow when the oracle is armed.
type L1Cache interface {
	Read(addr uint64) cache.Result
	Write(addr uint64) cache.Result
	Config() cache.Config
}

// L1Pair is a run's first-level caches as a core drives them, with each
// side's explain probe (nil when unexplained). A unified pair has one
// cache and one probe on both sides.
type L1Pair struct {
	I, D           L1Cache
	IProbe, DProbe *explain.Probe
}

// L1 attaches the observers to a run's first-level caches: each side goes
// behind a check shadow and gets an explain probe, both labelled D (U when
// unified) and I, and the explain-3c conservation invariant joins the
// oracle's battery. i is ignored when unified.
func (o *Observers) L1(d, i *cache.Cache, unified bool) (L1Pair, error) {
	if unified {
		i = d
	}
	p := L1Pair{I: i, D: d}
	if o == nil {
		return p, nil
	}
	label := "D"
	if unified {
		label = "U"
	}
	var err error
	if p.D, p.DProbe, err = o.side(label, d); err != nil {
		return p, err
	}
	p.I, p.IProbe = p.D, p.DProbe
	if !unified {
		if p.I, p.IProbe, err = o.side("I", i); err != nil {
			return p, err
		}
	}
	if o.Check != nil && o.Explain != nil {
		o.Check.AddInvariant("explain-3c", o.Explain.CheckConservation)
	}
	return p, nil
}

// side attaches the observers to one L1 cache.
func (o *Observers) side(label string, c *cache.Cache) (L1Cache, *explain.Probe, error) {
	var l L1Cache = c
	var err error
	if o.Check != nil {
		if l, err = o.Check.Shadow(label, c); err != nil {
			return nil, nil, err
		}
	}
	var probe *explain.Probe
	if o.Explain != nil {
		if probe, err = o.Explain.Probe(label, c.Config()); err != nil {
			return nil, nil, err
		}
	}
	return l, probe, nil
}

// Buf attaches the observers to a run's L1 write buffer of the given
// depth: the oracle audits it against a naive FIFO and checks its
// structure and occupancy, the event ring records its writes, and
// attribution conservation joins the oracle's battery.
func (o *Observers) Buf(buf *writebuf.Buffer, depth int) {
	if o == nil {
		return
	}
	if o.Trace.EventsOn() {
		buf.SetTracer(o.Trace)
	}
	if o.Check == nil {
		return
	}
	bo := o.Check.BufOracle("l1buf", depth)
	buf.SetAuditor(bo)
	o.Check.AddInvariant("l1buf", buf.CheckInvariants)
	o.Check.AddInvariant("l1buf-occupancy", func() error {
		if real, oracle := buf.Len(), bo.Len(); real != oracle {
			return fmt.Errorf("real queue holds %d entries, oracle %d", real, oracle)
		}
		return nil
	})
	if o.Trace.AttribOn() {
		o.Check.AddInvariant("attrib-conservation", o.Trace.CheckConservation)
	}
}

// MarkWarm snapshots the recorders at the warm-start boundary.
func (o *Observers) MarkWarm() {
	if o == nil {
		return
	}
	o.Trace.MarkWarm()
	o.Explain.MarkWarm()
}

// Finish closes the run and returns its first failure: the oracle's final
// battery and, when tally is non-nil, its diff of the core's accounting;
// the recorder's last window and its cycle conservation against
// final.Cycles; and the explainer's classified misses against misses.
func (o *Observers) Finish(tally *check.Tally, final simtrace.Sample, misses int64) error {
	if o == nil {
		return nil
	}
	if o.Check != nil {
		if err := o.Check.Finish(tally); err != nil {
			return err
		}
	}
	if err := o.Trace.Finish(final, final.Cycles); err != nil {
		return err
	}
	return o.Explain.Finish(misses)
}
