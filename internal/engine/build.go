package engine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/system"
	"repro/internal/trace"
)

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
//
// This is the single-organization case of BuildProfiles' pass: with one
// organization there is no chain to shortcut, so the checker and the
// recorder observe every access.
func BuildProfileExplained(org Org, t *trace.Trace, opts *check.Options, exp *explain.Recorder) (*Profile, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m, err := newMember(org, t.Name)
	if err != nil {
		return nil, err
	}
	var chk *check.Checker
	if opts != nil {
		chk = check.New(opts)
		chk.SetContext(fmt.Sprintf("trace=%s dcache=%v", t.Name, org.DCache))
		label := "D"
		if org.Unified {
			label = "U"
		}
		dc, err := chk.Shadow(label, m.fastD)
		if err != nil {
			return nil, err
		}
		ic := l1cache(dc)
		if !org.Unified {
			if ic, err = chk.Shadow("I", m.fastI); err != nil {
				return nil, err
			}
		}
		m.ic, m.dc = ic, dc
	}
	// exp.On() rather than a nil check: a recorder whose Options arm no
	// instrument attaches no probes, so the disarmed build runs the same
	// code path as a nil recorder.
	if exp.On() {
		label := "D"
		if org.Unified {
			label = "U"
		}
		if m.expD, err = exp.Probe(label, org.DCache); err != nil {
			return nil, err
		}
		if org.Unified {
			m.expI = m.expD
		} else if m.expI, err = exp.Probe("I", org.ICache); err != nil {
			return nil, err
		}
		if chk != nil {
			chk.AddInvariant("explain-3c", exp.CheckConservation)
		}
	}
	if chk != nil || exp.On() {
		m.fastI, m.fastD = nil, nil // every access goes through the observers
	}
	one := []*member{m}
	ps := pass{t: t, chains: []chain{{byI: one, byD: one}}, members: one, chk: chk, exp: exp}
	if err := ps.run(); err != nil {
		return nil, err
	}
	if chk != nil {
		tally := m.p.total.SelfCheckTally()
		if err := chk.Finish(&tally); err != nil {
			return nil, err
		}
	}
	if err := exp.Finish(m.p.total.IfetchMisses + m.p.total.LoadMisses + m.p.total.StoreMisses); err != nil {
		return nil, err
	}
	return m.p, nil
}

// BuildProfiles builds the profile of every organization against the
// trace in one behavioural pass. Profile i belongs to orgs[i] and equals
// BuildProfile(orgs[i], t) bit for bit.
//
// The pass walks the trace once and drives every organization's caches on
// each couplet. Organizations that form an inclusion chain (see chainKey)
// share a shortcut: a read probes the chain from the smallest cache upward
// and stops at the first hit, because every larger cache holds the block
// too and a direct-mapped read hit changes no state. Every other
// organization is driven access by access.
func BuildProfiles(orgs []Org, t *trace.Trace) ([]*Profile, error) {
	for _, org := range orgs {
		if err := org.Validate(); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	members := make([]*member, len(orgs))
	for i, org := range orgs {
		m, err := newMember(org, t.Name)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	ps := pass{t: t, chains: chains(members), members: members}
	if err := ps.run(); err != nil {
		return nil, err
	}
	out := make([]*Profile, len(members))
	for i, m := range members {
		out[i] = m.p
	}
	return out, nil
}

// chainKey groups the organizations whose caches stay inclusive of one
// another when driven by the same references. Every cache is direct
// mapped, so replacement never chooses (and never draws random numbers),
// and fetches whole blocks. With one block size, a smaller power-of-two
// set count indexes with a subset of a larger one's index bits, so two
// blocks that share a set in the larger cache share one in the smaller.
// Every access keeps a block resident in the smaller cache resident in
// the larger: a read fills its block everywhere it missed, a store fills
// everywhere or nowhere (one write-allocate setting), and the block that
// evicts another from the larger cache is filled into the smaller one's
// matching set as well. The Unified flag keys the chain because it routes
// fetches into the data cache. The write policy does not: it changes
// which stores are events, never which blocks are resident.
type chainKey struct {
	unified        bool
	iBlock, dBlock int
	alloc          bool
}

// chainable reports whether a cache may join an inclusion chain.
func chainable(c cache.Config) bool { return c.Assoc == 1 && !c.SubBlocked() }

// chains groups the members into inclusion chains, each ordered by
// capacity on either side, and every other organization into a chain of
// its own. A one-member chain is the plain access-by-access pass.
func chains(members []*member) []chain {
	var out []chain
	index := make(map[chainKey]int)
	for i, m := range members {
		org := m.p.Org
		ok := chainable(org.DCache) && (org.Unified || chainable(org.ICache))
		if !ok {
			one := members[i : i+1]
			out = append(out, chain{byI: one, byD: one})
			continue
		}
		k := chainKey{unified: org.Unified, dBlock: org.DCache.BlockWords, alloc: org.DCache.WriteAllocate}
		if !org.Unified {
			k.iBlock = org.ICache.BlockWords
		}
		c, seen := index[k]
		if !seen {
			c = len(out)
			index[k] = c
			out = append(out, chain{})
		}
		out[c].byI = append(out[c].byI, m)
		out[c].byD = append(out[c].byD, m)
	}
	for _, c := range out {
		// The fetch side of a unified cache is its data side.
		slices.SortStableFunc(c.byI, func(a, b *member) int {
			return cmp.Compare(a.ic.Config().SizeWords, b.ic.Config().SizeWords)
		})
		slices.SortStableFunc(c.byD, func(a, b *member) int {
			return cmp.Compare(a.dc.Config().SizeWords, b.dc.Config().SizeWords)
		})
	}
	return out
}

// chain is a set of members the pass drives together, in ascending order
// of fetch-side and of data-side capacity.
type chain struct {
	byI, byD []*member
}

// member is one organization's state during a behavioural pass.
type member struct {
	p      *Profile
	ic, dc l1cache // the caches, or their checked shadows
	// fastI and fastD are the caches when nothing observes their
	// accesses, else nil. The pass then settles hits with TryRead and
	// TryWrite and builds a cache.Result only for a miss.
	fastI, fastD *cache.Cache
	expI, expD   *explain.Probe
	ifw, dfw     int
	wt           bool

	events chunks[event]
	addrs  chunks[uint64]
	// own holds the organization's own statistics: misses and traffic.
	// The counts every organization shares (couplets, references,
	// fetches, loads, stores) are the pass's, and StoreHits follows from
	// Stores and StoreMisses.
	own system.Counters

	// The run of untimed couplets since the last event starts at couplet
	// gapFrom, after gapStores couplets with a store. A write-back
	// organization's untimed store is always a hit, and a write-through
	// organization has none, so the gap's store hits are a difference of
	// the pass's store counts.
	gapFrom, gapStores int64

	ev      event // the current couplet's event while it is built
	touched bool  // ev holds an event for the current couplet
}

func newMember(org Org, traceName string) (*member, error) {
	d, err := cache.New(org.DCache)
	if err != nil {
		return nil, err
	}
	m := &member{
		p:     &Profile{Org: org, TraceName: traceName},
		ic:    d,
		dc:    d,
		fastI: d,
		fastD: d,
		wt:    org.DCache.WritePolicy == cache.WriteThrough,
	}
	if !org.Unified {
		if m.fastI, err = cache.New(org.ICache); err != nil {
			return nil, err
		}
		m.ic = m.fastI
	}
	m.ifw = m.ic.Config().EffectiveFetchWords()
	m.dfw = m.dc.Config().EffectiveFetchWords()
	return m, nil
}

// recordMiss accounts the traffic of a read (or write-allocate) miss and
// returns the victim's write-back size.
func (m *member) recordMiss(fetchWords int, res cache.Result) uint16 {
	m.own.ReadWordsFetched += int64(fetchWords)
	if res.Victim.Valid && res.Victim.Dirty {
		m.own.WritebackBlocks++
		m.own.WritebackWords += int64(res.Victim.WritebackWords)
		m.own.WritebackDirtyWords += int64(res.Victim.DirtyWords)
		return uint16(res.Victim.WritebackWords)
	}
	return 0
}

// totals merges the member's own statistics with the pass's shared ones.
func (m *member) totals(shared *system.Counters) system.Counters {
	c := m.own
	c.Refs, c.Couplets = shared.Refs, shared.Couplets
	c.Ifetches, c.Loads, c.Stores = shared.Ifetches, shared.Loads, shared.Stores
	c.StoreHits = c.Stores - c.StoreMisses
	return c
}

// mark closes the current gap with a warm-boundary marker before the
// pass's next couplet and snapshots the warm counters.
func (m *member) mark(shared *system.Counters) {
	m.events.add(event{gap: uint32(shared.Couplets - m.gapFrom),
		gapStoreHits: uint32(shared.Stores - m.gapStores), flags: evMarker})
	m.gapFrom, m.gapStores = shared.Couplets, shared.Stores
	m.p.warmSnap = m.totals(shared)
}

// The miss paths below build the member's event for the current couplet.
// Every event address goes straight into the side array: the fetch side
// runs before the data side, so each member's addresses stay in event
// order.

func (m *member) fetchMiss(a uint64, res cache.Result) {
	m.own.IfetchMisses++
	m.ev.flags |= evIMiss
	m.addrs.add(a)
	if m.ev.iVicW = m.recordMiss(m.ifw, res); m.ev.iVicW > 0 {
		m.addrs.add(res.Victim.BlockAddr)
	}
}

func (m *member) loadMiss(a uint64, res cache.Result) {
	m.own.LoadMisses++
	m.ev.d = dLoadMiss
	m.ev.flags |= evDAddr
	m.addrs.add(a)
	if m.ev.dVicW = m.recordMiss(m.dfw, res); m.ev.dVicW > 0 {
		m.addrs.add(res.Victim.BlockAddr)
	}
}

// storeEvent records a store that passes toward memory: a write-through
// hit, or any miss.
func (m *member) storeEvent(a uint64, res cache.Result) {
	switch {
	case res.Hit:
		m.own.StoreThroughWords++
		m.ev.d = dStoreHit
	case !res.Allocated:
		m.own.StoreMisses++
		m.own.StoreThroughWords++
		m.ev.d = dStoreMissNoAlloc
	default:
		m.own.StoreMisses++
		if m.wt {
			m.own.StoreThroughWords++
		}
		m.ev.d = dStoreMissAlloc
	}
	m.ev.flags |= evDAddr
	m.addrs.add(a)
	if m.ev.d == dStoreMissAlloc {
		if m.ev.dVicW = m.recordMiss(m.dfw, res); m.ev.dVicW > 0 {
			m.addrs.add(res.Victim.BlockAddr)
		}
	}
}

// pass is one walk of a trace that drives a set of members.
type pass struct {
	t       *trace.Trace
	chains  []chain
	members []*member
	touched []*member // members with an event in the current couplet

	// Single-organization passes only: the lockstep oracle and the
	// explainability recorder.
	chk *check.Checker
	exp *explain.Recorder
}

func (ps *pass) touch(m *member) {
	if !m.touched {
		m.touched = true
		ps.touched = append(ps.touched, m)
	}
}

// run walks the trace once. Each couplet's fetch goes through every
// chain's fetch side, then its data reference through every data side;
// the members the couplet touched then append their events. A chain's
// reads stop at the first cache that hits: by inclusion every larger
// cache hits too, and a direct-mapped read hit changes no state. Its
// stores go to every cache, since each hit dirties its own copy.
func (ps *pass) run() error {
	refs := ps.t.Refs
	var shared system.Counters // counts every member shares
	warmTaken := ps.t.WarmStart == 0
	if ps.touched == nil {
		ps.touched = make([]*member, 0, len(ps.members))
	}
	chains, chk := ps.chains, ps.chk
	for i := 0; i < len(refs); {
		if chk != nil {
			if err := chk.Err(); err != nil {
				return err
			}
		}
		if !warmTaken && i >= ps.t.WarmStart {
			ps.markWarm(&shared)
			warmTaken = true
		}
		n := trace.CoupletLen(refs, i)
		couplet, storesBefore := shared.Couplets, shared.Stores
		shared.Couplets++
		shared.Refs += int64(n)

		first := refs[i]
		var dref *trace.Ref
		var hasI uint8
		if first.Kind == trace.Ifetch {
			shared.Ifetches++
			hasI = evHasI
			a := first.Extended()
			for c := range chains {
				for _, m := range chains[c].byI {
					if m.fastI != nil && m.fastI.TryRead(a) {
						break
					}
					res := m.ic.Read(a)
					m.expI.OnRead(a, res)
					if res.Hit {
						break
					}
					m.fetchMiss(a, res)
					ps.touch(m)
				}
			}
			if n == 2 {
				dref = &refs[i+1]
			}
		} else {
			dref = &refs[i]
		}

		dHit := dNone // the data outcome of a member whose data side hit
		if dref != nil {
			a := dref.Extended()
			switch dref.Kind {
			case trace.Load:
				shared.Loads++
				dHit = dLoadHit
				for c := range chains {
					for _, m := range chains[c].byD {
						if m.fastD != nil && m.fastD.TryRead(a) {
							break
						}
						res := m.dc.Read(a)
						m.expD.OnRead(a, res)
						if res.Hit {
							break
						}
						m.loadMiss(a, res)
						ps.touch(m)
					}
				}
			case trace.Store:
				shared.Stores++
				dHit = dStoreHit
				for c := range chains {
					for _, m := range chains[c].byD {
						hit := m.fastD != nil && m.fastD.TryWrite(a)
						if hit && !m.wt {
							continue // an untimed write-back store hit
						}
						var res cache.Result
						if hit {
							res.Hit = true
						} else {
							res = m.dc.Write(a)
							m.expD.OnWrite(a, res)
							if res.Hit && !m.wt {
								continue
							}
						}
						m.storeEvent(a, res)
						ps.touch(m)
					}
				}
			}
		}

		for _, m := range ps.touched {
			ev := m.ev
			ev.flags |= hasI
			if ev.d == dNone {
				ev.d = dHit
			}
			ev.gap = uint32(couplet - m.gapFrom)
			ev.gapStoreHits = uint32(storesBefore - m.gapStores)
			m.events.add(ev)
			m.gapFrom, m.gapStores = couplet+1, shared.Stores
			m.ev, m.touched = event{}, false
		}
		ps.touched = ps.touched[:0]
		i += n
	}
	if !warmTaken {
		ps.markWarm(&shared)
	}
	for _, m := range ps.members {
		p := m.p
		p.tailGap = uint32(shared.Couplets - m.gapFrom)
		p.tailGapStoreHits = uint32(shared.Stores - m.gapStores)
		p.events, p.addrs = m.events.blocks(), m.addrs.blocks()
		p.total = m.totals(&shared)
	}
	return nil
}

// markWarm pins the warm-start boundary in every member before the next
// couplet.
func (ps *pass) markWarm(shared *system.Counters) {
	for _, m := range ps.members {
		m.mark(shared)
	}
	ps.exp.MarkWarm()
}
