package explain

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// op is one word access of a synthetic stimulus stream.
type op struct {
	addr  uint64
	write bool
}

// streamFrom flattens a trace into the word-access stream one cache side
// would observe if it served every reference (the shadow models don't
// care about I/D routing, only about the access sequence).
func streamFrom(t *trace.Trace) []op {
	ops := make([]op, 0, len(t.Refs))
	for _, r := range t.Refs {
		ops = append(ops, op{addr: r.Extended(), write: r.Kind == trace.Store})
	}
	return ops
}

func testStreams(tb testing.TB) map[string][]op {
	tb.Helper()
	streams := map[string][]op{
		"sequential": streamFrom(workload.Sequential(4000, 0)),
		"loop":       streamFrom(workload.Loop(4000, 300)),
		"random":     streamFrom(workload.Random(4000, 4096, 0.3, 7)),
		"couplets":   streamFrom(workload.Couplets(4000)),
		"conflict":   streamFrom(workload.Conflict(2000, 1<<14)),
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		tb.Fatal(err)
	}
	streams["mu3"] = streamFrom(mu3.MustGenerate(0.02))
	return streams
}

// TestLRUShadowMatchesCache pins the O(1) fully-associative LRU shadow
// against a genuinely fully-associative cache.Cache (Assoc == blocks,
// LRU) bit-for-bit: same hits, same misses, on every access, across
// whole-block and sub-block geometries and both allocation policies. This
// equivalence is what makes the conflict class exact.
func TestLRUShadowMatchesCache(t *testing.T) {
	type geom struct {
		name                  string
		sizeWords, blockWords int
		fetchWords            int
		walloc                bool
	}
	geoms := []geom{
		{"64b-whole", 64, 4, 0, false},
		{"64b-whole-alloc", 64, 4, 0, true},
		{"256b-whole", 256, 8, 0, true},
		{"1kb-sub", 1024, 16, 4, false},
		{"1kb-sub-alloc", 1024, 16, 4, true},
		{"small-sub", 128, 32, 8, true},
	}
	for name, ops := range testStreams(t) {
		for _, g := range geoms {
			cfg := cache.Config{
				SizeWords:     g.sizeWords,
				BlockWords:    g.blockWords,
				Assoc:         g.sizeWords / g.blockWords,
				Replacement:   cache.LRU,
				WritePolicy:   cache.WriteBack,
				WriteAllocate: g.walloc,
				FetchWords:    g.fetchWords,
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, g.name, err)
			}
			ref := cache.MustNew(cfg)
			shadow := newLRUShadow(cfg)
			for i, o := range ops {
				var want cache.Result
				if o.write {
					want = ref.Write(o.addr)
				} else {
					want = ref.Read(o.addr)
				}
				got := shadow.Access(o.addr, o.write)
				if got != want.Hit {
					t.Fatalf("%s/%s: access %d (addr %#x write %v): shadow hit=%v, cache hit=%v",
						name, g.name, i, o.addr, o.write, got, want.Hit)
				}
			}
		}
	}
}

// TestInfiniteShadowNeverRemisses asserts the infinite shadow's defining
// property: once a word has been installed, every later access to it
// hits, and under write-allocate the only misses are first touches of
// each fetch unit.
func TestInfiniteShadowNeverRemisses(t *testing.T) {
	cfg := cache.Config{
		SizeWords: 256, BlockWords: 4, Assoc: 1,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack, WriteAllocate: true,
	}
	s := newInfiniteShadow(cfg)
	geom := newShadowGeom(cfg)
	seen := make(map[uint64]bool) // fetch-unit granule (whole block here)
	for name, ops := range testStreams(t) {
		for i, o := range ops {
			block := o.addr >> geom.blockShift
			got := s.Access(o.addr, o.write)
			if got != seen[block] {
				t.Fatalf("%s: access %d: infinite shadow hit=%v, want %v", name, i, got, seen[block])
			}
			seen[block] = true
		}
	}
}

// TestStackDistMatchesNaiveStack pins the Fenwick structure against a
// naive O(n·D) LRU stack across enough accesses to force slot rescaling.
func TestStackDistMatchesNaiveStack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sd := newStackDist()
	var stack []uint64 // stack[0] = MRU
	n := 3 * stackDistInitialSlots
	for i := 0; i < n; i++ {
		block := uint64(rng.Intn(6000))
		want := int64(-1)
		for j, b := range stack {
			if b == block {
				want = int64(j)
				stack = append(stack[:j], stack[j+1:]...)
				break
			}
		}
		stack = append([]uint64{block}, stack...)
		if got := sd.Access(block); got != want {
			t.Fatalf("access %d (block %d): distance %d, want %d", i, block, got, want)
		}
	}
}

// TestStackDistHitsMatchNaiveSimulator cross-validates the histogram
// route to hit counts against the naive simulator: for every power-of-two
// capacity, HitsBelow(C) must equal the hit count of a fully-associative
// LRU write-allocate cache.Cache of C blocks, bit-for-bit, on every
// stimulus stream. This is the LRU inclusion property the single-pass
// multi-configuration engine (ROADMAP item 1) will rest on.
func TestStackDistHitsMatchNaiveSimulator(t *testing.T) {
	const blockWords = 4
	for name, ops := range testStreams(t) {
		var h Hist
		sd := newStackDist()
		for _, o := range ops {
			h.Add(sd.Access(o.addr / blockWords))
		}
		for capBlocks := int64(1); capBlocks <= 4096; capBlocks *= 2 {
			cfg := cache.Config{
				SizeWords:     int(capBlocks) * blockWords,
				BlockWords:    blockWords,
				Assoc:         int(capBlocks),
				Replacement:   cache.LRU,
				WritePolicy:   cache.WriteBack,
				WriteAllocate: true,
			}
			ref := cache.MustNew(cfg)
			var hits int64
			for _, o := range ops {
				var res cache.Result
				if o.write {
					res = ref.Write(o.addr)
				} else {
					res = ref.Read(o.addr)
				}
				if res.Hit {
					hits++
				}
			}
			if got := h.HitsBelow(capBlocks); got != hits {
				t.Fatalf("%s: capacity %d blocks: histogram-derived hits %d, simulator %d",
					name, capBlocks, got, hits)
			}
		}
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	h.Add(-1) // cold
	h.Add(0)  // bucket 0
	h.Add(1)  // bucket 1: [1,1]
	h.Add(2)  // bucket 2: [2,3]
	h.Add(3)  // bucket 2
	h.Add(4)  // bucket 3: [4,7]
	if h.Cold != 1 {
		t.Fatalf("cold = %d, want 1", h.Cold)
	}
	want := []int64{1, 1, 2, 1}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", h.Buckets, want)
	}
	for i, v := range want {
		if h.Buckets[i] != v {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Buckets[i], v, h.Buckets)
		}
	}
	if lo, hi := BucketLow(2), BucketHigh(2); lo != 2 || hi != 3 {
		t.Fatalf("bucket 2 range [%d,%d], want [2,3]", lo, hi)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d, want 6", h.Total())
	}
	// Capacity 4: distances 0..3 hit -> buckets 0,1,2 = 4 accesses.
	if got := h.HitsBelow(4); got != 4 {
		t.Fatalf("HitsBelow(4) = %d, want 4", got)
	}
	if got := h.HitsBelow(0); got != 0 {
		t.Fatalf("HitsBelow(0) = %d, want 0", got)
	}
}

// TestHeatDownsample checks the report's heat folding and zero-safe
// shares on an idle probe.
func TestHeatDownsample(t *testing.T) {
	if got := downsample([]int64{1, 2, 3, 4, 5}, 2); len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 5 {
		t.Fatalf("downsample = %v, want [3 7 5]", got)
	}
	var c ThreeC
	a, b, d := c.SharePct()
	if a != 0 || b != 0 || d != 0 {
		t.Fatalf("zero-miss SharePct = %v,%v,%v, want zeros", a, b, d)
	}
}

// TestReportMerge exercises the multi-trace rollup path.
func TestReportMerge(t *testing.T) {
	mk := func(misses int64) *Report {
		return &Report{Sides: []SideReport{{
			Label:  "D",
			Refs:   misses * 10,
			Misses: misses,
			ThreeC: ThreeC{Compulsory: misses},
			Reuse:  &Hist{Cold: misses, Buckets: []int64{1, 2}},
			Sets:   8, SetsPerCell: 1,
			HeatMisses: []int64{1, 0, 0, 0, 0, 0, 0, misses},
		}}}
	}
	r := mk(5)
	if err := r.Merge(mk(3)); err != nil {
		t.Fatal(err)
	}
	s := r.Side("D")
	if s.Misses != 8 || s.ThreeC.Compulsory != 8 || s.Reuse.Cold != 8 || s.HeatMisses[7] != 8 {
		t.Fatalf("merged side = %+v", *s)
	}
	bad := mk(1)
	bad.Sides[0].Sets = 16
	if err := r.Merge(bad); err == nil {
		t.Fatal("merge across geometries should fail")
	}
}
