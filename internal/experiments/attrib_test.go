package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simtrace"
	"repro/internal/system"
)

// TestSweepAttributionAggregation runs a tiny sweep with cycle attribution
// and the event ring armed and checks the observability plumbing end to
// end: per-component registry counters, the cells_attributed tally, the
// manifest attribution block, and the captured representative event trace.
func TestSweepAttributionAggregation(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{
		Workers:     2,
		Metrics:     reg,
		Instruments: system.Instruments{Trace: &simtrace.Options{Attrib: true, Events: true}},
	})
	if _, err := s.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1); err != nil {
		t.Fatal(err)
	}

	cells := reg.Counter(obs.MCellsDone).Value()
	if cells == 0 {
		t.Fatal("sweep completed no cells")
	}
	if got := reg.Counter(obs.MAttribCells).Value(); got != cells {
		t.Fatalf("cells_attributed = %d, want %d", got, cells)
	}
	comps := reg.CounterValuesWithPrefix(obs.MAttribPrefix)
	if comps["base_issue"] <= 0 {
		t.Fatalf("base_issue component empty: %v", comps)
	}
	// cells_attributed deliberately lives outside the attrib_ namespace;
	// the component scan must not pick it up.
	if _, ok := comps["cells"]; ok {
		t.Fatalf("cell tally leaked into the component namespace: %v", comps)
	}

	// The manifest picks the aggregation up from the registry.
	m := obs.NewManifest()
	m.FillFromRegistry(reg, time.Second)
	if m.AttribCells != cells || m.Attribution["base_issue"] != comps["base_issue"] {
		t.Fatalf("manifest attribution block: cells=%d attribution=%v", m.AttribCells, m.Attribution)
	}

	// One freshly computed cell donated its event ring.
	rec := s.EventTrace()
	if rec == nil {
		t.Fatal("no representative event trace captured")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("captured event trace is empty")
	}
}

// TestCellAttributionBalance runs single cells of both kinds directly and
// checks each carries a conserved warm-window attribution.
func TestCellAttributionBalance(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	s.SetExec(ExecOptions{Instruments: system.Instruments{Trace: &simtrace.Options{Attrib: true}}})

	replay := s.replayCell(0, OrgFor(8, 4, 1), baseTiming(40))
	v, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Attrib == nil {
		t.Fatal("replay cell carries no attribution")
	}
	if err := v.Attrib.Check(); err != nil {
		t.Fatal(err)
	}
	if v.Attrib.Cycles != v.Warm.Cycles {
		t.Fatalf("attribution covers %d cycles, warm window has %d",
			v.Attrib.Cycles, v.Warm.Cycles)
	}

	// A multilevel system cell must grow exactly one level bucket.
	l1 := l1Config(1024, 4, 1)
	cfg := system.Config{CycleNs: 40, ICache: l1, DCache: l1, WriteBufDepth: 4,
		Mem: mem.DefaultConfig()}
	cfg.L2 = &system.L2Config{
		Cache: cache.Config{SizeWords: 1 << 13, BlockWords: 16, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack,
			WriteAllocate: true, Seed: 1988},
		AccessCycles:  3,
		WriteBufDepth: 4,
	}
	sv, err := s.systemCell(0, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sv.Attrib == nil || len(sv.Attrib.LevelService) != 1 {
		t.Fatalf("multilevel cell attribution: %+v", sv.Attrib)
	}
	if err := sv.Attrib.Check(); err != nil {
		t.Fatal(err)
	}
	if sv.Attrib.Cycles != sv.Warm.Cycles {
		t.Fatalf("system cell attribution covers %d cycles, warm window has %d",
			sv.Attrib.Cycles, sv.Warm.Cycles)
	}
}

// TestSweepResultsUnchangedByTrace: arming the instrumentation must not
// change any number in the aggregated figure.
func TestSweepResultsUnchangedByTrace(t *testing.T) {
	plain := MustNewSuiteWithTracesForTest(t)
	plain.SetExec(ExecOptions{Workers: 2})
	base, err := plain.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1)
	if err != nil {
		t.Fatal(err)
	}

	traced := MustNewSuiteWithTracesForTest(t)
	traced.SetExec(ExecOptions{Workers: 2, Instruments: system.Instruments{Trace: &simtrace.Options{Attrib: true}}})
	got, err := traced.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("instrumentation changed the aggregated grid")
	}
}
