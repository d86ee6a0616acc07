package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/simtrace"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestEngineAttributionMatchesSystem extends the cross-validation to the
// instrumentation layer: for every organization/timing/trace cell the
// gap-compressed engine must produce the exact same cycle attribution,
// warm attribution, and event timeline as the reference simulator.
func TestEngineAttributionMatchesSystem(t *testing.T) {
	traces := crossTraces(t)

	orgs := []struct {
		name string
		org  Org
	}{
		{"base-16KB", Org{ICache: l1(2048, 4, 1, cache.WriteBack, false), DCache: l1(2048, 4, 1, cache.WriteBack, false)}},
		{"write-through", Org{ICache: l1(2048, 4, 1, cache.WriteBack, false), DCache: l1(2048, 4, 1, cache.WriteThrough, false)}},
		{"unified", Org{DCache: l1(4096, 4, 1, cache.WriteBack, false), Unified: true}},
		{"tiny", Org{ICache: l1(256, 2, 1, cache.WriteBack, false), DCache: l1(256, 2, 1, cache.WriteBack, false)}},
		{"subblock-alloc", Org{ICache: sub(2048, 32, 8), DCache: subAlloc(2048, 32, 8)}},
	}
	timings := []Timing{
		{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
		{CycleNs: 56, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 1},
	}
	opts := simtrace.Options{Attrib: true, Events: true}

	for _, oc := range orgs {
		for _, tr := range traces {
			prof, err := BuildProfile(oc.org, tr)
			if err != nil {
				t.Fatalf("%s/%s: profile: %v", oc.name, tr.Name, err)
			}
			for _, tm := range timings {
				engRec := simtrace.New(opts)
				if _, err := prof.ReplayObserved(tm, &system.Observers{Trace: engRec}); err != nil {
					t.Fatalf("%s/%s: replay: %v", oc.name, tr.Name, err)
				}
				cfg := system.Config{
					CycleNs:       tm.CycleNs,
					ICache:        oc.org.ICache,
					DCache:        oc.org.DCache,
					Unified:       oc.org.Unified,
					WriteBufDepth: tm.WriteBufDepth,
					Mem:           tm.Mem,
					Instruments:   system.Instruments{Trace: &opts},
				}
				sys, err := system.New(cfg)
				if err != nil {
					t.Fatalf("%s/%s: system: %v", oc.name, tr.Name, err)
				}
				if _, err := sys.Run(tr); err != nil {
					t.Fatalf("%s/%s: system run: %v", oc.name, tr.Name, err)
				}
				sysRec := sys.Recorder()
				if got, want := engRec.Attribution(), sysRec.Attribution(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s @%dns: attribution diverges\nengine: %+v\nsystem: %+v",
						oc.name, tr.Name, tm.CycleNs, got, want)
				}
				if got, want := engRec.AttributionWarm(), sysRec.AttributionWarm(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s @%dns: warm attribution diverges\nengine: %+v\nsystem: %+v",
						oc.name, tr.Name, tm.CycleNs, got, want)
				}
				got, want := engRec.Events(), sysRec.Events()
				if len(got) != len(want) {
					t.Fatalf("%s/%s @%dns: %d engine events vs %d system events",
						oc.name, tr.Name, tm.CycleNs, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s @%dns: event %d diverges\nengine: %+v\nsystem: %+v",
							oc.name, tr.Name, tm.CycleNs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestReplayObservedUnchanged: arming the recorder must not perturb the
// replayed results, and replaying with a nil recorder stays valid.
func TestReplayObservedUnchanged(t *testing.T) {
	tr := workload.Random(5000, 8192, 0.3, 19)
	tr.WarmStart = 2000
	org := Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)}
	prof, err := BuildProfile(org, tr)
	if err != nil {
		t.Fatal(err)
	}
	tm := Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
	plain, err := prof.Replay(tm)
	if err != nil {
		t.Fatal(err)
	}
	rec := simtrace.New(simtrace.Options{Attrib: true})
	traced, err := prof.ReplayObserved(tm, &system.Observers{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("recorder changed replay results:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	a := rec.Attribution()
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != traced.Total.Cycles {
		t.Fatalf("attribution covers %d cycles, replay counted %d", a.Cycles, traced.Total.Cycles)
	}
	if _, err := prof.ReplayObserved(tm, nil); err != nil {
		t.Fatal(err)
	}
}
