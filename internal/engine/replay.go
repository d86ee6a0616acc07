package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/simtrace"
	"repro/internal/system"
	"repro/internal/writebuf"
)

// Timing is the timing-phase parameterization applied to a Profile.
type Timing struct {
	// CycleNs is the CPU/cache cycle time in nanoseconds.
	CycleNs int
	// Mem is the main memory configuration.
	Mem mem.Config
	// WriteBufDepth is the L1 write buffer depth (the paper uses 4).
	WriteBufDepth int
}

// Validate reports parameter errors.
func (t Timing) Validate() error {
	if t.CycleNs <= 0 {
		return fmt.Errorf("engine: non-positive cycle time %d ns", t.CycleNs)
	}
	if t.WriteBufDepth < 0 {
		return fmt.Errorf("engine: negative write buffer depth %d", t.WriteBufDepth)
	}
	return t.Mem.Validate()
}

// memSink adapts the memory unit to the write buffer (addresses are
// irrelevant to main memory timing).
type memSink struct{ unit *mem.Unit }

func (m *memSink) StartWrite(now int64, addr uint64, words int) int64 {
	return m.unit.StartWrite(now, words)
}

func (m *memSink) NextFree() int64 { return m.unit.FreeAt }

// replayer holds the timing-phase state while walking an event stream.
type replayer struct {
	unit *mem.Unit
	buf  *writebuf.Buffer
	rec  *simtrace.Recorder // nil unless instrumentation is armed
}

// missFetch mirrors system.(*System).missFetch for the whole-block
// completion policy with main memory downstream. fetchWords is the cache's
// fetch unit; wbWords is the victim's write-back size (0 for a clean miss).
func (r *replayer) missFetch(start int64, fetchWords int, addr uint64, wbWords int, vicAddr uint64) int64 {
	fetchAddr := addr &^ uint64(fetchWords-1)
	r.buf.Drain(start)
	matched := r.buf.FlushMatching(start, fetchAddr, fetchWords)
	mw0, mr0 := r.unit.ReadWaitCycles, r.unit.ReadRecoveryWaitCycles
	dataAt, fillStart := r.unit.StartReadBlocked(start, fetchWords, wbWords)
	if r.rec != nil {
		r.rec.NoteFetch(r.unit.ReadWaitCycles-mw0, r.unit.ReadRecoveryWaitCycles-mr0, matched)
		r.rec.Event(simtrace.EvFill, fillStart, dataAt, fetchAddr, fetchWords)
	}
	complete := dataAt
	if wbWords > 0 {
		rel := r.enqueueTracked(dataAt, vicAddr, wbWords, dataAt)
		if r.rec != nil {
			r.rec.Event(simtrace.EvWriteback, dataAt, dataAt, vicAddr, wbWords)
		}
		if rel > complete {
			complete = rel
		}
	}
	return complete
}

// storeThrough mirrors the system's write-buffer enqueue for a store that
// passes toward memory: drain at the access time, enqueue one word at the
// completion time, stall if the buffer is full.
func (r *replayer) storeThrough(now, done int64, addr uint64) int64 {
	r.buf.Drain(now)
	if rel := r.enqueueTracked(done, addr, 1, done); rel > done {
		done = rel
	}
	return done
}

// enqueueTracked wraps the write buffer's Enqueue, feeding any full-buffer
// stall cycles to the attribution recorder.
func (r *replayer) enqueueTracked(now int64, addr uint64, words int, ready int64) int64 {
	if r.rec == nil {
		return r.buf.Enqueue(now, addr, words, ready)
	}
	f0 := r.buf.FullStallCycles
	rel := r.buf.Enqueue(now, addr, words, ready)
	r.rec.NoteBufFull(r.buf.FullStallCycles - f0)
	return rel
}

// Replay runs the timing phase over the profile and returns the same Result
// the system simulator would produce for the equivalent configuration
// (whole-block fetch, no L2). The cost is proportional to the number of
// events, not the number of references.
func (p *Profile) Replay(t Timing) (system.Result, error) {
	return p.ReplayObserved(t, nil)
}

// ReplayObserved is Replay with the run's observers attached to its write
// buffer (system.Observers.Buf). The oracle audits every enqueue and start
// for FIFO order and depth bounds and runs the buffer's invariants, with
// the first violation aborting the replay as a typed *check.Divergence
// error. The simtrace recorder's cycle attribution and event ring work
// exactly as in the system simulator. Interval windows are NOT supported
// here: the event stream compresses hit-only couplet runs into gaps, so
// there is no per-couplet point at which to sample write-buffer depth; use
// the system simulator for interval series. An explain recorder belongs to
// the behavioural pass and sees nothing here. A nil obs is exactly Replay.
func (p *Profile) ReplayObserved(t Timing, obs *system.Observers) (system.Result, error) {
	if err := t.Validate(); err != nil {
		return system.Result{}, err
	}
	tm, err := t.Mem.Quantize(t.CycleNs)
	if err != nil {
		return system.Result{}, err
	}
	r := &replayer{unit: mem.NewUnit(tm), rec: obs.Recorder()}
	if r.buf, err = writebuf.New(t.WriteBufDepth, &memSink{unit: r.unit}); err != nil {
		return system.Result{}, err
	}
	obs.Name(p.TraceName, p.Org.DCache, t.CycleNs)
	obs.Buf(r.buf, t.WriteBufDepth)
	chk, rec := obs.Checker(), r.rec

	ifw := p.Org.ICache.EffectiveFetchWords()
	if p.Org.Unified {
		ifw = p.Org.DCache.EffectiveFetchWords()
	}
	dfw := p.Org.DCache.EffectiveFetchWords()
	wt := p.Org.DCache.WritePolicy == cache.WriteThrough

	var now int64
	var warmTiming system.Counters
	warmSeen := false

	addrs := addrReader{rest: p.addrs}
	for _, blk := range p.events {
		for k := range blk {
			ev := &blk[k]
			if chk != nil {
				if err := chk.Err(); err != nil {
					return system.Result{}, err
				}
			}
			now += int64(ev.gap) + int64(ev.gapStoreHits)
			if rec != nil {
				// Gap couplets cost one base cycle each plus one store
				// cycle per contained store hit — attributed in bulk.
				rec.AddGap(int64(ev.gap), int64(ev.gapStoreHits), now)
			}
			if ev.flags&evMarker != 0 {
				obs.MarkWarm()
				warmTiming = system.Counters{
					Cycles:             now,
					BufFullStallCycles: r.buf.FullStallCycles,
					BufMatchEvents:     r.buf.MatchEvents,
					MemReads:           r.unit.Reads,
					MemWrites:          r.unit.Writes,
					MemWaitCycles:      r.unit.WaitCycles,
					MemBusyCycles:      r.unit.BusyCycles,
				}
				warmSeen = true
				continue
			}
			if rec != nil {
				rec.BeginCouplet(now)
			}
			comp := now + 1
			if ev.flags&evIMiss != 0 {
				iAddr := addrs.next()
				var vic uint64
				if ev.iVicW > 0 {
					vic = addrs.next()
				}
				c := r.missFetch(now+1, ifw, iAddr, int(ev.iVicW), vic)
				if rec != nil {
					rec.NoteRef(simtrace.Ifetch, c)
					rec.Event(simtrace.EvIfetchMiss, now, c, iAddr, 0)
				}
				if c > comp {
					comp = c
				}
			} else if ev.flags&evHasI != 0 && rec != nil {
				rec.NoteRef(simtrace.Ifetch, now+1)
			}
			var dAddr, dVic uint64
			if ev.flags&evDAddr != 0 {
				dAddr = addrs.next()
				if ev.dVicW > 0 {
					dVic = addrs.next()
				}
			}
			switch ev.d {
			case dNone:
				// no data reference in this couplet
			case dLoadHit:
				// one cycle, already covered by comp
				if rec != nil {
					rec.NoteRef(simtrace.Load, now+1)
				}
			case dStoreHit:
				done := now + 2
				if wt {
					done = r.storeThrough(now, done, dAddr)
				}
				if rec != nil {
					rec.NoteRef(simtrace.Store, done)
				}
				if done > comp {
					comp = done
				}
			case dLoadMiss:
				c := r.missFetch(now+1, dfw, dAddr, int(ev.dVicW), dVic)
				if rec != nil {
					rec.NoteRef(simtrace.Load, c)
					rec.Event(simtrace.EvLoadMiss, now, c, dAddr, 0)
				}
				if c > comp {
					comp = c
				}
			case dStoreMissNoAlloc:
				done := r.storeThrough(now, now+2, dAddr)
				if rec != nil {
					rec.NoteRef(simtrace.Store, done)
				}
				if done > comp {
					comp = done
				}
			case dStoreMissAlloc:
				c := r.missFetch(now+1, dfw, dAddr, int(ev.dVicW), dVic)
				c++
				if wt {
					c = r.storeThrough(now, c, dAddr)
				}
				if rec != nil {
					rec.NoteRef(simtrace.Store, c)
					rec.Event(simtrace.EvStoreMiss, now, c, dAddr, 0)
				}
				if c > comp {
					comp = c
				}
			}
			if rec != nil {
				rec.EndCouplet(comp)
			}
			now = comp
		}
	}
	now += int64(p.tailGap) + int64(p.tailGapStoreHits)
	if rec != nil {
		rec.AddGap(int64(p.tailGap), int64(p.tailGapStoreHits), now)
	}
	if err := obs.Finish(nil, simtrace.Sample{Refs: p.total.Refs, Cycles: now}, 0); err != nil {
		return system.Result{}, err
	}

	total := p.total
	total.Cycles = now
	total.BufFullStallCycles = r.buf.FullStallCycles
	total.BufMatchEvents = r.buf.MatchEvents
	total.MemReads = r.unit.Reads
	total.MemWrites = r.unit.Writes
	total.MemWaitCycles = r.unit.WaitCycles
	total.MemBusyCycles = r.unit.BusyCycles

	warm := p.warmSnap
	if warmSeen {
		warm.Cycles = warmTiming.Cycles
		warm.BufFullStallCycles = warmTiming.BufFullStallCycles
		warm.BufMatchEvents = warmTiming.BufMatchEvents
		warm.MemReads = warmTiming.MemReads
		warm.MemWrites = warmTiming.MemWrites
		warm.MemWaitCycles = warmTiming.MemWaitCycles
		warm.MemBusyCycles = warmTiming.MemBusyCycles
	}
	return system.Result{CycleNs: t.CycleNs, Total: total, Warm: total.Sub(warm)}, nil
}
