package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// sweepOrgs is the direct-mapped split organization at each of the
// paper's eleven total sizes, 4 KB to 4 MB, with 4-word blocks.
func sweepOrgs() []Org {
	var out []Org
	for kb := 4; kb <= 4096; kb *= 2 {
		cfg := l1(kb*1024/8, 4, 1, cache.WriteBack, false)
		out = append(out, Org{ICache: cfg, DCache: cfg})
	}
	return out
}

// mixedOrgs puts chains next to organizations that cannot join one:
// several ways under random and LRU replacement, sub-block fetch, and
// chains of their own for write-through, write-allocate and unified
// caches, with duplicates.
func mixedOrgs() []Org {
	split := func(cfg cache.Config) Org { return Org{ICache: cfg, DCache: cfg} }
	dm := func(size int) cache.Config { return l1(size, 4, 1, cache.WriteBack, false) }
	lru := l1(1024, 4, 2, cache.WriteBack, false)
	lru.Replacement = cache.LRU
	// Fetch and data sides of different sizes, so the two sides of a
	// chain are ordered differently.
	skew := Org{ICache: dm(4096), DCache: dm(256)}
	return []Org{
		split(dm(2048)),
		split(l1(1024, 4, 2, cache.WriteBack, false)),
		split(dm(256)),
		split(lru),
		split(sub(2048, 16, 4)),
		split(l1(512, 4, 1, cache.WriteThrough, false)),
		split(dm(1024)),
		split(l1(4096, 4, 1, cache.WriteThrough, false)),
		skew,
		split(l1(512, 4, 1, cache.WriteBack, true)),
		split(dm(2048)), // a duplicate
		{DCache: dm(1024), Unified: true},
		split(l1(2048, 4, 1, cache.WriteBack, true)),
		{DCache: dm(4096), Unified: true},
		split(l1(1024, 8, 1, cache.WriteBack, false)), // another block size
		{DCache: dm(256), Unified: true},
		split(subAlloc(1024, 16, 4)),
		split(l1(512, 4, 1, cache.WriteThrough, false)), // a duplicate
	}
}

// profileDiff describes the first difference between two profiles, or
// returns "" when they are equal bit for bit: event records, address side
// array, tail gap, total and warm counters.
func profileDiff(got, want *Profile) string {
	switch {
	case got.Org != want.Org || got.TraceName != want.TraceName:
		return "identity differs"
	case !slices.Equal(slices.Concat(got.events...), slices.Concat(want.events...)):
		return fmt.Sprintf("event records differ (%d vs %d blocks)", len(got.events), len(want.events))
	case !slices.Equal(slices.Concat(got.addrs...), slices.Concat(want.addrs...)):
		return "address side arrays differ"
	case got.tailGap != want.tailGap || got.tailGapStoreHits != want.tailGapStoreHits:
		return fmt.Sprintf("tail gap %d/%d, want %d/%d", got.tailGap, got.tailGapStoreHits, want.tailGap, want.tailGapStoreHits)
	case got.total != want.total:
		return fmt.Sprintf("total counters\n got %+v\nwant %+v", got.total, want.total)
	case got.warmSnap != want.warmSnap:
		return fmt.Sprintf("warm snapshot\n got %+v\nwant %+v", got.warmSnap, want.warmSnap)
	}
	return ""
}

// lockstepTimings replay both profiles; equal records give equal results,
// and the replay is the consumer that matters.
var lockstepTimings = []Timing{
	{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
	{CycleNs: 20, Mem: mem.DefaultConfig(), WriteBufDepth: 1},
	{CycleNs: 60, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 0},
}

// checkGroupPass builds every organization in one pass and each alone,
// and fails on any difference.
func checkGroupPass(t *testing.T, orgs []Org, tr *trace.Trace, replay bool) {
	t.Helper()
	got, err := BuildProfiles(orgs, tr)
	if err != nil {
		t.Fatalf("%s: BuildProfiles: %v", tr.Name, err)
	}
	if len(got) != len(orgs) {
		t.Fatalf("%s: %d profiles for %d organizations", tr.Name, len(got), len(orgs))
	}
	for k, org := range orgs {
		want, err := BuildProfile(org, tr)
		if err != nil {
			t.Fatalf("%s: BuildProfile: %v", tr.Name, err)
		}
		if d := profileDiff(got[k], want); d != "" {
			t.Fatalf("%s, org %d (I %v, D %v, unified %v): %s", tr.Name, k, org.ICache, org.DCache, org.Unified, d)
		}
		if !replay {
			continue
		}
		for _, tm := range lockstepTimings {
			g, err := got[k].Replay(tm)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Replay(tm)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Fatalf("%s, org %d @%dns: replay differs", tr.Name, k, tm.CycleNs)
			}
		}
	}
}

// TestBuildProfilesLockstep: one group pass yields, for every
// organization, the profile BuildProfile builds alone.
func TestBuildProfilesLockstep(t *testing.T) {
	traces := crossTraces(t)
	for _, tc := range []struct {
		name string
		orgs []Org
	}{
		{"dm-sweep", sweepOrgs()},
		{"mixed", mixedOrgs()},
		{"single", mixedOrgs()[1:2]},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tr := range traces {
				checkGroupPass(t, tc.orgs, tr, true)
			}
		})
	}

	// The warm boundary at the first reference, and at the last one. The
	// last couplet of the fixture is a fetch-data pair, so a boundary on
	// its data reference is never reached inside the walk, and the marker
	// goes in after it.
	t.Run("warm-edges", func(t *testing.T) {
		tr := crossTraces(t)[5]
		if n := len(tr.Refs); trace.CoupletLen(tr.Refs, n-2) != 2 {
			t.Fatal("fixture no longer ends in a fetch-data couplet")
		}
		orgs := append(sweepOrgs()[:4], mixedOrgs()...)
		for _, warm := range []int{0, len(tr.Refs) - 2, len(tr.Refs) - 1} {
			edge := *tr
			edge.WarmStart = warm
			checkGroupPass(t, orgs, &edge, true)
		}
		past := *tr
		past.WarmStart = len(tr.Refs)
		if _, err := BuildProfiles(orgs, &past); err == nil {
			t.Error("a warm start past the trace validated")
		}
	})
}

// TestBuildProfilesValidates: a bad organization anywhere in the set fails
// the whole pass.
func TestBuildProfilesValidates(t *testing.T) {
	orgs := append(sweepOrgs()[:2], Org{})
	if _, err := BuildProfiles(orgs, crossTraces(t)[0]); err == nil {
		t.Fatal("an empty organization validated")
	}
}

// fuzzOrg decodes two bytes into an organization small enough for short
// streams to churn: 16 to 2048 words, 1 to 8 words per block, one to four
// ways under each replacement policy, both write policies, write-allocate,
// sub-block fetch and unified caches. ok is false when the draw does not
// validate.
func fuzzOrg(b0, b1 byte) (org Org, ok bool) {
	cfg := cache.Config{
		SizeWords:     16 << (b0 & 7),
		BlockWords:    1 << (b1 & 3),
		Assoc:         []int{1, 1, 2, 4}[b0>>3&3],
		Replacement:   cache.Replacement(b0 >> 5 % 3),
		WritePolicy:   cache.WritePolicy(b1 >> 2 & 1),
		WriteAllocate: b1&8 != 0,
		Seed:          uint64(b0),
	}
	if b1&16 != 0 && cfg.BlockWords > 1 {
		cfg.FetchWords = cfg.BlockWords / 2
	}
	icfg := cfg
	icfg.SizeWords = 16 << (b1 >> 5)
	org = Org{ICache: icfg, DCache: cfg, Unified: b0>>7 == 1}
	return org, org.Validate() == nil
}

// FuzzBuildProfiles draws a small trace and a set of organizations and
// requires the group pass to match BuildProfile on each organization.
// Input layout: one byte n, then n byte pairs (one organization each),
// then two bytes of warm start, then three bytes per reference (kind and
// process in the first, a word address in the other two).
func FuzzBuildProfiles(f *testing.F) {
	seed := func(orgs []byte, refs int) []byte {
		data := append([]byte{byte(len(orgs) / 2)}, orgs...)
		data = binary.LittleEndian.AppendUint16(data, uint16(refs/3))
		for i := 0; i < refs; i++ {
			data = append(data, byte(i%7), byte(i*37), byte(i*11%5))
		}
		return data
	}
	f.Add(seed([]byte{0x02, 0x02, 0x03, 0x02, 0x05, 0x02}, 300))
	f.Add(seed([]byte{0x01, 0x06, 0x04, 0x06, 0x0a, 0x02, 0x62, 0x0a, 0x83, 0x02}, 200))
	f.Add(seed([]byte{0x03, 0x12, 0x04, 0x0b, 0x04, 0x0b, 0x84, 0x01}, 120))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]%8) + 1
		if len(data) < 1+2*n+2 {
			return
		}
		var orgs []Org
		for k := 0; k < n; k++ {
			if org, ok := fuzzOrg(data[1+2*k], data[2+2*k]); ok {
				orgs = append(orgs, org)
			}
		}
		warm := int(binary.LittleEndian.Uint16(data[1+2*n:]))
		body := data[3+2*n:]
		if len(body) > 3*4096 {
			body = body[:3*4096]
		}
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+2 < len(body); i += 3 {
			tr.Refs = append(tr.Refs, trace.Ref{
				Kind: trace.Kind(body[i] % 3),
				PID:  body[i] >> 6,
				Addr: uint32(body[i+1]) | uint32(body[i+2])<<8,
			})
		}
		if len(orgs) == 0 || len(tr.Refs) == 0 {
			return
		}
		tr.WarmStart = warm % len(tr.Refs)
		checkGroupPass(t, orgs, tr, false)
	})
}
