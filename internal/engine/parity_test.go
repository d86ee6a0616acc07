package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/simtrace"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestAllInstrumentsLockstep arms the oracle, cycle attribution with the
// event ring, and every explain instrument on both cores at once. The
// system simulator and the engine's build+replay must agree on the warm
// counters, the warm attribution and the warm 3C totals, and neither may
// report a divergence: with the oracle and attribution both armed the
// replay's attrib-conservation invariant runs too.
func TestAllInstrumentsLockstep(t *testing.T) {
	cfgFor := func(assoc int, rep cache.Replacement, pol cache.WritePolicy) cache.Config {
		return cache.Config{SizeWords: 1024, BlockWords: 4, Assoc: assoc,
			Replacement: rep, WritePolicy: pol, Seed: 5}
	}
	dm := cfgFor(1, cache.Random, cache.WriteBack)
	cases := []struct {
		name string
		org  Org
		warm int // the trace's WarmStart
	}{
		{"direct-mapped", Org{ICache: dm, DCache: dm}, 2000},
		{"2-way-lru", Org{ICache: cfgFor(2, cache.LRU, cache.WriteBack), DCache: cfgFor(2, cache.LRU, cache.WriteBack)}, 2000},
		{"write-through", Org{ICache: dm, DCache: cfgFor(1, cache.Random, cache.WriteThrough)}, 2000},
		{"unified", Org{DCache: cfgFor(2, cache.Random, cache.WriteBack), Unified: true}, 2000},
		{"no-warm-start", Org{ICache: dm, DCache: dm}, 0},
	}
	checkOpts := &check.Options{Every: 128}
	traceOpts := simtrace.Options{Attrib: true, Events: true}
	explainOpts := explain.All()
	tm := Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 2}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := workload.Random(6000, 3000, 0.3, 29)
			tr.WarmStart = c.warm

			sys, err := system.New(system.Config{
				CycleNs:       tm.CycleNs,
				ICache:        c.org.ICache,
				DCache:        c.org.DCache,
				Unified:       c.org.Unified,
				WriteBufDepth: tm.WriteBufDepth,
				Mem:           tm.Mem,
				Instruments:   system.Instruments{Check: checkOpts, Trace: &traceOpts, Explain: &explainOpts},
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sys.Run(tr)
			if err != nil {
				t.Fatalf("system run: %v", err)
			}

			built := system.Instruments{Check: checkOpts, Explain: &explainOpts}.Arm()
			prof, err := BuildProfileObserved(c.org, tr, built)
			if err != nil {
				t.Fatalf("engine build: %v", err)
			}
			replayed := system.Instruments{Check: checkOpts, Trace: &traceOpts}.Arm()
			got, err := prof.ReplayObserved(tm, replayed)
			if err != nil {
				t.Fatalf("engine replay: %v", err)
			}

			if got.Warm != want.Warm {
				t.Errorf("warm counters differ\nengine: %+v\nsystem: %+v", got.Warm, want.Warm)
			}
			if g, w := replayed.Trace.AttributionWarm(), sys.Recorder().AttributionWarm(); !reflect.DeepEqual(g, w) {
				t.Errorf("warm attribution differs\nengine: %+v\nsystem: %+v", g, w)
			}
			g3, w3 := built.Explain.ReportWarm().Total3C(), sys.Explainer().ReportWarm().Total3C()
			if g3 != w3 {
				t.Errorf("warm 3C totals differ: engine %+v, system %+v", g3, w3)
			}
			if w3.Total() == 0 {
				t.Error("no classified misses: the case exercises nothing")
			}
		})
	}
}
