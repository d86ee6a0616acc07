package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestDriversAgree: one cell evaluated by every driver — the single-phase
// simulator, the suite's profile-and-replay path, the service's cell and
// the explorer — gives the same warm counters and execution time, bit for
// bit. The service cell takes its caches from config.Default, whose L1
// seed differs from the suite's, so it joins only the direct-mapped case,
// where replacement never draws from the random stream.
func TestDriversAgree(t *testing.T) {
	const name, scale = "mu3", 0.05
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.MustGenerate(scale)
	suite := experiments.NewSuiteWithTraces([]*trace.Trace{tr})
	ex, err := NewExplorer([]*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, assoc := range []int{1, 2} {
		point := DesignPoint{TotalKB: 16, Assoc: assoc, CycleNs: 40}
		org := experiments.OrgFor(point.TotalKB, 4, assoc)
		tm := engine.Timing{CycleNs: point.CycleNs, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
		want, err := system.Simulate(system.Config{CycleNs: tm.CycleNs, ICache: org.ICache, DCache: org.DCache,
			WriteBufDepth: tm.WriteBufDepth, Mem: tm.Mem}, tr)
		if err != nil {
			t.Fatal(err)
		}

		got, err := suite.Result(context.Background(), 0, org, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Warm != want.Warm || got.ExecTimeNs() != want.ExecTimeNs() {
			t.Errorf("%d-way: Suite.Result %+v (%v ns), system.Simulate %+v (%v ns)",
				assoc, got.Warm, got.ExecTimeNs(), want.Warm, want.ExecTimeNs())
		}

		if assoc == 1 {
			cell := service.CellSpec{Workload: name, Scale: scale, SizeKB: point.TotalKB,
				Assoc: assoc, BlockWords: 4, CycleNs: point.CycleNs}
			c, err := cell.Simulate(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w := want.Warm
			if c.Refs != w.Refs || c.Cycles != w.Cycles || c.LoadMisses != w.LoadMisses ||
				c.IfMisses != w.IfetchMisses || c.ExecMs != want.ExecTimeNs()/1e6 {
				t.Errorf("%d-way: service cell %+v, system.Simulate %+v (%v ns)", assoc, c, w, want.ExecTimeNs())
			}
		}

		ev, err := ex.Evaluate(point)
		if err != nil {
			t.Fatal(err)
		}
		execNs, err := stats.GeoMean([]float64{want.ExecTimeNs()})
		if err != nil {
			t.Fatal(err)
		}
		cpr, err := stats.GeoMean([]float64{want.Warm.CyclesPerRef()})
		if err != nil {
			t.Fatal(err)
		}
		if ev.ExecNs != execNs || ev.CyclesPerRef != cpr {
			t.Errorf("%d-way: Explorer %v ns, %v cycles/ref; system.Simulate %v ns, %v cycles/ref",
				assoc, ev.ExecNs, ev.CyclesPerRef, execNs, cpr)
		}
	}
}
