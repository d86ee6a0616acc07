package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSelfCheckSweepClean is the acceptance sweep for the differential
// oracle: a speed-size grid with -selfcheck semantics reports zero
// divergences and produces results bit-identical to the unchecked sweep,
// through both the two-phase engine path and the full-system path.
func TestSelfCheckSweepClean(t *testing.T) {
	sizes, cycles := []int{8, 16}, []int{20, 40}

	gold := MustNewSuiteWithTracesForTest(t)
	goldGrid, err := gold.SpeedSizeGrid(context.Background(), sizes, cycles, 1)
	if err != nil {
		t.Fatal(err)
	}

	checked := MustNewSuiteWithTracesForTest(t)
	checked.SetExec(ExecOptions{SelfCheck: &check.Options{Every: 512}})
	checkedGrid, err := checked.SpeedSizeGrid(context.Background(), sizes, cycles, 1)
	if err != nil {
		t.Fatalf("selfcheck sweep diverged: %v", err)
	}
	if mustJSON(t, checkedGrid) != mustJSON(t, goldGrid) {
		t.Error("selfcheck changed the grid values")
	}

	// Full-system path, multilevel included: the oracle shadows L1 only,
	// so even configurations the engine cannot replay stay checkable.
	cfg := system.DefaultConfig()
	l1 := cache.Config{SizeWords: 2048, BlockWords: 4, Assoc: 2,
		Replacement: cache.LRU, WritePolicy: cache.WriteBack, Seed: 1988}
	cfg.ICache, cfg.DCache = l1, l1
	cfg.L2 = &system.L2Config{
		Cache: cache.Config{SizeWords: 16384, BlockWords: 16, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack,
			WriteAllocate: true, Seed: 1988},
		AccessCycles: 3, WriteBufDepth: 4,
	}
	ge, gc, err := gold.SimulateSystem(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce, cc, err := checked.SimulateSystem(context.Background(), cfg)
	if err != nil {
		t.Fatalf("checked system sweep diverged: %v", err)
	}
	if ce != ge || cc != gc {
		t.Errorf("selfcheck changed system results: %v/%v vs %v/%v", ce, cc, ge, gc)
	}
}

// TestSelfCheckDivergenceIsPermanent: a divergence surfaces as a typed,
// permanent cell error — retries must not mask a broken simulator.
func TestSelfCheckDivergenceIsPermanent(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	attempts := 0
	cells := []runner.Cell[cellOut]{{
		Key: "diverging",
		Run: func(ctx context.Context) (cellOut, error) {
			attempts++
			return cellOut{}, &check.Divergence{Kind: "verdict", Label: "D", Detail: "synthetic"}
		},
	}}
	s.SetExec(ExecOptions{Retries: 3})
	_, err := s.runCells(context.Background(), cells)
	var div *check.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("want *check.Divergence in sweep error, got %v", err)
	}
	if attempts != 1 {
		t.Errorf("diverging cell ran %d times; permanent errors must not retry", attempts)
	}
}

// fig3Cells builds the small replay grid the fault tests sweep.
func fig3Cells(s *Suite) []runner.Cell[cellOut] {
	var cells []runner.Cell[cellOut]
	for _, kb := range []int{8, 16} {
		for _, cy := range []int{20, 40, 60} {
			cells = s.replayCellsFor(cells, OrgFor(kb, 4, 1), baseTiming(cy))
		}
	}
	return cells
}

// faultPlanFor deterministically searches seeds until the plan hits the
// cell set with at least one forced panic, one slow cell, one transient
// and one untouched cell, so the test exercises every path regardless of
// how the key hashes land.
func faultPlanFor(t *testing.T, keys []string) *faultinject.Plan {
	t.Helper()
	for seed := uint64(0); seed < 500; seed++ {
		p := &faultinject.Plan{Seed: seed, PanicRate: 0.15, SlowRate: 0.15,
			TransientRate: 0.15, SlowFor: 5 * time.Millisecond, TransientFails: 1}
		counts := map[faultinject.Kind]int{}
		for _, k := range keys {
			counts[p.Decide(k)]++
		}
		if counts[faultinject.Panic] >= 1 && counts[faultinject.Slow] >= 1 &&
			counts[faultinject.Transient] >= 1 && counts[faultinject.None] >= 1 {
			t.Logf("fault plan seed %d: %d panic, %d slow, %d transient, %d clean",
				seed, counts[faultinject.Panic], counts[faultinject.Slow],
				counts[faultinject.Transient], counts[faultinject.None])
			return p
		}
	}
	t.Fatal("no seed produced a mixed fault assignment over the grid")
	return nil
}

// TestFaultInjectionSweep is the acceptance sweep for fault injection: a
// seeded plan forcing panics, delays and transient errors (plus one cell
// reading a corrupted trace) runs under a checkpoint. Faulted cells fail
// as typed errors, the rest of the grid completes, and a clean rerun over
// the same checkpoint produces output byte-identical to a never-faulted
// run.
func TestFaultInjectionSweep(t *testing.T) {
	// Gold: the same grid, no faults, no checkpoint.
	gold := MustNewSuiteWithTracesForTest(t)
	goldOuts, err := gold.runCells(context.Background(), fig3Cells(gold))
	if err != nil {
		t.Fatal(err)
	}

	cellKeys := func(cells []runner.Cell[cellOut]) []string {
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Key
		}
		return keys
	}

	// Faulted, checkpointed run. One retry: transients recover, panics
	// exhaust the budget and fail.
	path := filepath.Join(t.TempDir(), "faulted.ndjson")
	cp, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	faulted := MustNewSuiteWithTracesForTest(t)
	cells := fig3Cells(faulted)
	plan := faultPlanFor(t, cellKeys(cells))
	faulted.SetExec(ExecOptions{Workers: 2, Retries: 1, Checkpoint: cp, Faults: plan})

	// The corrupt-trace cell: its run reads a damaged trace file and must
	// fail with the reader's record/offset error, routed through the
	// runner like any simulator failure.
	tr := workload.Sequential(400, 0)
	var raw bytes.Buffer
	if err := trace.WriteBinary(&raw, tr); err != nil {
		t.Fatal(err)
	}
	damaged := faultinject.Corrupt(raw.Bytes(), 11, faultinject.Truncate)
	cells = append(cells, runner.Cell[cellOut]{
		Key: "corrupt-trace",
		Run: func(ctx context.Context) (cellOut, error) {
			_, err := trace.ReadBinary(bytes.NewReader(damaged))
			return cellOut{}, err
		},
	})

	_, err = faulted.runCells(context.Background(), cells)
	var se *runner.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("faulted sweep error = %v, want *runner.SweepError", err)
	}
	if se.Canceled() {
		t.Error("faulted sweep reported as canceled")
	}

	// Every failure is typed: a forced panic or the corrupt-trace reader
	// error. Transient and slow cells recovered, so they are not here.
	sawPanic, sawCorrupt := false, false
	for _, ce := range se.Errs {
		switch {
		case ce.Key == "corrupt-trace":
			sawCorrupt = true
			if !strings.Contains(ce.Err.Error(), "byte offset") {
				t.Errorf("corrupt-trace failure lacks byte offset: %v", ce.Err)
			}
		case ce.Panicked:
			sawPanic = true
			if plan.Decide(ce.Key) != faultinject.Panic {
				t.Errorf("cell %s panicked but was not assigned a panic fault", ce.Key)
			}
			if ce.Attempts != 2 {
				t.Errorf("panicked cell %s made %d attempts, want 2", ce.Key, ce.Attempts)
			}
		default:
			t.Errorf("untyped failure in cell %s: %v", ce.Key, ce.Err)
		}
	}
	if !sawPanic || !sawCorrupt {
		t.Fatalf("expected both a forced panic and the corrupt-trace failure, got panic=%v corrupt=%v",
			sawPanic, sawCorrupt)
	}
	// The rest of the grid is intact: done + failed covers every cell.
	if se.Summary.Done+se.Summary.Failed != se.Summary.Total || se.Summary.NotRun != 0 {
		t.Errorf("grid not fully attempted: %+v", se.Summary)
	}
	if se.Summary.Done == 0 {
		t.Error("no cell survived the fault plan")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume without faults over the same checkpoint: completed cells
	// replay, previously-faulted ones compute, and the output is
	// byte-identical to the never-faulted run.
	cp2, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() == 0 {
		t.Fatal("checkpoint is empty after the faulted sweep")
	}
	resumed := MustNewSuiteWithTracesForTest(t)
	resumed.SetExec(ExecOptions{Workers: 2, Checkpoint: cp2})
	resumedOuts, err := resumed.runCells(context.Background(), fig3Cells(resumed))
	if err != nil {
		t.Fatalf("clean resume failed: %v", err)
	}
	goldJSON, _ := json.Marshal(goldOuts)
	resumedJSON, _ := json.Marshal(resumedOuts)
	if !bytes.Equal(goldJSON, resumedJSON) {
		t.Errorf("resumed output differs from never-faulted run\nresumed: %s\ngold:    %s",
			resumedJSON, goldJSON)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}
