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
// BuildProfiles builds many organizations in one walk of the trace. Those
// that form an inclusion chain (direct-mapped, whole-block caches with one
// block size and write-allocate setting) share the pass's hits: a read probes the chain from
// the smallest cache upward and stops at the first hit, since every larger
// cache holds the block too. Every cache still emits its own events, and
// BuildProfile is the pass's one-organization case.
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
	"repro/internal/system"
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
