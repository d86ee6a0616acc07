// Package engine implements the fast two-phase simulator.
//
// The paper's key methodological observation — which its own simulation
// farm exploited by preprocessing each trace "to extract all the system
// independent statistics" — is that a cache's hit/miss behaviour depends
// only on the organization (size, set size, block size, write policy),
// never on the cycle time or memory speed. The engine therefore simulates a
// trace against an organization once (BuildProfile), recording a compact
// stream of miss events, and then replays that stream against any number of
// timing parameterizations (Replay), each replay costing time proportional
// to the number of misses rather than the number of references.
//
// Replay reproduces the single-phase system simulator cycle-for-cycle for
// the base fetch policy (whole-block fetch, no second-level cache); the
// cross-validation tests assert exact equality of cycle counts and stall
// statistics across many organizations, timings and traces. Early-continue
// fetch policies and multilevel hierarchies change which couplets can stall,
// so those run on the system simulator instead.
package engine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/system"
	"repro/internal/trace"
)

// l1cache is the cache interface the behavioural pass drives: satisfied by
// *cache.Cache directly and by *check.Shadow in selfcheck mode.
type l1cache interface {
	Read(addr uint64) cache.Result
	Write(addr uint64) cache.Result
	Config() cache.Config
}

// Org is the timing-independent part of a system configuration: the cache
// organizations. Write buffer depth and all memory parameters belong to the
// timing phase.
type Org struct {
	ICache  cache.Config
	DCache  cache.Config
	Unified bool
}

// Validate reports configuration errors.
func (o Org) Validate() error {
	if !o.Unified {
		if err := o.ICache.Validate(); err != nil {
			return fmt.Errorf("engine: icache: %w", err)
		}
	}
	if err := o.DCache.Validate(); err != nil {
		return fmt.Errorf("engine: dcache: %w", err)
	}
	return nil
}

// dOp encodes the data side of an event couplet.
type dOp uint8

const (
	dNone dOp = iota
	dLoadHit
	dStoreHit // relevant in events for couplet cost and write-through sends
	dLoadMiss
	dStoreMissNoAlloc
	dStoreMissAlloc
)

// event is one couplet that interacts with the memory system (any miss, or
// any store that must pass toward memory), plus the run of untimed couplets
// preceding it. A marker event carries no couplet at all: it pins the
// warm-start boundary inside the replay.
//
// The record is 16 bytes. Addresses live in the profile's side array, in
// event order, and only the events that use one append it: a missing
// ifetch its address and, when a dirty victim leaves, the victim's block
// address; a data reference its address when flagged evDAddr (misses and
// write-through stores), then its dirty victim's.
type event struct {
	gap          uint32 // non-event couplets since the previous event
	gapStoreHits uint32 // how many of those contained a store hit (cost 2)
	flags        uint8
	d            dOp
	iVicW        uint16 // ifetch victim write-back words (0 = clean or no victim)
	dVicW        uint16 // data victim write-back words
}

// Event flags.
const (
	evMarker uint8 = 1 << iota
	evHasI         // the couplet has an instruction fetch
	evIMiss        // ... which missed
	evDAddr        // the data reference's address is in the side array
)

// Profile is the behavioural digest of (organization × trace): everything
// the timing phase needs, at one record per memory-system interaction.
type Profile struct {
	Org       Org
	TraceName string

	events [][]event  // record blocks, in order
	addrs  [][]uint64 // side array of addresses (see event)
	// tailGap counts trailing non-event couplets after the last event.
	tailGap          uint32
	tailGapStoreHits uint32

	// Behavioural statistics, independent of timing.
	total    system.Counters // cycle and stall fields zero here
	warmSnap system.Counters // totals at the warm boundary
}

// TotalCounters returns the behavioural statistics of the whole trace
// (timing fields are zero; use Replay for cycles).
func (p *Profile) TotalCounters() system.Counters { return p.total }

// WarmCounters returns the behavioural statistics of the measured window
// after the warm-start boundary (timing fields are zero).
func (p *Profile) WarmCounters() system.Counters { return p.total.Sub(p.warmSnap) }

// Events returns the number of recorded miss events (markers excluded).
func (p *Profile) Events() int {
	n := 0
	for _, blk := range p.events {
		for i := range blk {
			if blk[i].flags&evMarker == 0 {
				n++
			}
		}
	}
	return n
}

// BuildProfile simulates the trace's cache behaviour against the
// organization and digests it into a Profile. The cache configurations'
// seeds determine random replacement exactly as in the system simulator, so
// a system.System built from the same configs observes the identical
// hit/miss sequence.
func BuildProfile(org Org, t *trace.Trace) (*Profile, error) {
	return BuildProfileChecked(org, t, nil)
}

// BuildProfileChecked is BuildProfile with the reference model attached:
// when opts is non-nil, every cache access is diffed against the check
// package's oracle and structural invariants run at the configured
// interval. The first divergence aborts the build with a typed
// *check.Divergence error; a nil opts is exactly BuildProfile.
func BuildProfileChecked(org Org, t *trace.Trace, opts *check.Options) (*Profile, error) {
	return BuildProfileExplained(org, t, opts, nil)
}

// BuildProfileExplained is BuildProfileChecked with the explainability
// recorder attached: when exp is non-nil, every cache access also feeds
// the recorder's shadow models (3C classification, reuse distances, set
// pressure), and the build finishes by verifying 3C conservation against
// the profile's own miss counters. The behavioural pass sees every
// reference exactly once, so the recorder observes the same stream the
// system simulator would. A nil exp is exactly BuildProfileChecked.
func BuildProfileExplained(org Org, t *trace.Trace, opts *check.Options, exp *explain.Recorder) (*Profile, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	dreal, err := cache.New(org.DCache)
	if err != nil {
		return nil, err
	}
	var chk *check.Checker
	var dc, ic l1cache = dreal, dreal
	if opts != nil {
		chk = check.New(opts)
		chk.SetContext(fmt.Sprintf("trace=%s dcache=%v", t.Name, org.DCache))
		label := "D"
		if org.Unified {
			label = "U"
		}
		if dc, err = chk.Shadow(label, dreal); err != nil {
			return nil, err
		}
		ic = dc
	}
	if !org.Unified {
		ireal, err := cache.New(org.ICache)
		if err != nil {
			return nil, err
		}
		ic = ireal
		if chk != nil {
			if ic, err = chk.Shadow("I", ireal); err != nil {
				return nil, err
			}
		}
	}
	var expI, expD *explain.Probe
	// exp.On() rather than a nil check: a recorder whose Options arm no
	// instrument attaches no probes, so the disarmed build runs the same
	// code path as a nil recorder.
	if exp.On() {
		label := "D"
		if org.Unified {
			label = "U"
		}
		if expD, err = exp.Probe(label, org.DCache); err != nil {
			return nil, err
		}
		if org.Unified {
			expI = expD
		} else if expI, err = exp.Probe("I", org.ICache); err != nil {
			return nil, err
		}
		if chk != nil {
			chk.AddInvariant("explain-3c", exp.CheckConservation)
		}
	}
	p := &Profile{Org: org, TraceName: t.Name}
	wtThrough := org.DCache.WritePolicy == cache.WriteThrough
	ifw := ic.Config().EffectiveFetchWords()
	dfw := dc.Config().EffectiveFetchWords()

	// recordMiss accounts the traffic of a read (or write-allocate) miss
	// and returns the victim's write-back size.
	recordMiss := func(fetchWords int, res cache.Result) uint16 {
		p.total.ReadWordsFetched += int64(fetchWords)
		if res.Victim.Valid && res.Victim.Dirty {
			p.total.WritebackBlocks++
			p.total.WritebackWords += int64(res.Victim.WritebackWords)
			p.total.WritebackDirtyWords += int64(res.Victim.DirtyWords)
			return uint16(res.Victim.WritebackWords)
		}
		return 0
	}

	var events chunks[event]
	var addrs chunks[uint64]
	refs := t.Refs
	var gap, gapStoreHits uint32
	warmTaken := t.WarmStart == 0
	flushGapAsMarker := func() {
		events.add(event{gap: gap, gapStoreHits: gapStoreHits, flags: evMarker})
		gap, gapStoreHits = 0, 0
	}

	for i := 0; i < len(refs); {
		if chk != nil {
			if err := chk.Err(); err != nil {
				return nil, err
			}
		}
		if !warmTaken && i >= t.WarmStart {
			flushGapAsMarker()
			p.warmSnap = p.total
			exp.MarkWarm()
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		p.total.Couplets++
		p.total.Refs += int64(n)

		// Every couplet that appends an address to the side array is an
		// event, so addresses go straight in, in event order.
		var ev event
		interacts := false

		first := refs[i]
		var dref *trace.Ref
		if first.Kind == trace.Ifetch {
			p.total.Ifetches++
			ev.flags |= evHasI
			res := ic.Read(first.Extended())
			expI.OnRead(first.Extended(), res)
			if !res.Hit {
				p.total.IfetchMisses++
				ev.flags |= evIMiss
				interacts = true
				addrs.add(first.Extended())
				if ev.iVicW = recordMiss(ifw, res); ev.iVicW > 0 {
					addrs.add(res.Victim.BlockAddr)
				}
			}
			if n == 2 {
				dref = &refs[i+1]
			}
		} else {
			dref = &refs[i]
		}

		if dref != nil {
			dAddr := dref.Extended()
			var miss cache.Result // a read or write-allocate miss
			switch dref.Kind {
			case trace.Load:
				p.total.Loads++
				res := dc.Read(dAddr)
				expD.OnRead(dAddr, res)
				if res.Hit {
					ev.d = dLoadHit
				} else {
					p.total.LoadMisses++
					ev.d = dLoadMiss
					miss = res
				}
			case trace.Store:
				p.total.Stores++
				res := dc.Write(dAddr)
				expD.OnWrite(dAddr, res)
				switch {
				case res.Hit:
					p.total.StoreHits++
					ev.d = dStoreHit
					if wtThrough {
						p.total.StoreThroughWords++
						interacts = true
						ev.flags |= evDAddr
						addrs.add(dAddr)
					}
				case !res.Allocated:
					p.total.StoreMisses++
					p.total.StoreThroughWords++
					ev.d = dStoreMissNoAlloc
					interacts = true
					ev.flags |= evDAddr
					addrs.add(dAddr)
				default:
					p.total.StoreMisses++
					ev.d = dStoreMissAlloc
					if wtThrough {
						p.total.StoreThroughWords++
					}
					miss = res
				}
			}
			if ev.d == dLoadMiss || ev.d == dStoreMissAlloc {
				interacts = true
				ev.flags |= evDAddr
				addrs.add(dAddr)
				if ev.dVicW = recordMiss(dfw, miss); ev.dVicW > 0 {
					addrs.add(miss.Victim.BlockAddr)
				}
			}
		}

		if interacts {
			ev.gap = gap
			ev.gapStoreHits = gapStoreHits
			gap, gapStoreHits = 0, 0
			events.add(ev)
		} else {
			gap++
			if ev.d == dStoreHit {
				gapStoreHits++
			}
		}
		i += n
	}
	if !warmTaken {
		flushGapAsMarker()
		p.warmSnap = p.total
		exp.MarkWarm()
	}
	p.tailGap = gap
	p.tailGapStoreHits = gapStoreHits
	p.events, p.addrs = events.blocks(), addrs.blocks()
	if chk != nil {
		tally := p.total.SelfCheckTally()
		if err := chk.Finish(&tally); err != nil {
			return nil, err
		}
	}
	if err := exp.Finish(p.total.IfetchMisses + p.total.LoadMisses + p.total.StoreMisses); err != nil {
		return nil, err
	}
	return p, nil
}
