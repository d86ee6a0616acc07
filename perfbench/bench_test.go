package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Error("p90 of 99 samples reported; only 9.9 lie beyond it")
	}
	xs = append(xs, 100)
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported")
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 100 samples reported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		// Two clients' children overlapping each other: [10,40) ∪ [30,60).
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},
		// Nested inside the union, adds nothing.
		{ID: 4, Parent: 1, Name: "c", Start: at(35), End: at(45)},
		// Runs past the parent's end: only [90,100) counts.
		{ID: 5, Parent: 1, Name: "d", Start: at(90), End: at(120)},
		// A grandchild covers part of b only.
		{ID: 6, Parent: 3, Name: "e", Start: at(50), End: at(55)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond,
		2: 30 * time.Millisecond,
		3: 25 * time.Millisecond,
		4: 10 * time.Millisecond,
		5: 30 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if l := sum["job"]; l.calls != 1 || l.self != 40*time.Millisecond {
		t.Errorf("summarize job = %+v", l)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "x", "")
	tr.end(id, work{refs: 1})
	tr.note(id, work{})
	tr.label(id, "r")
	if id != 0 || tr.seconds(id) != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestDigest(t *testing.T) {
	g := [][]float64{{1.5, 2.25}, {3}}
	if digest(g) != digest([][]float64{{1.5, 2.25}, {3}}) {
		t.Error("equal grids digest differently")
	}
	if digest(g) == digest([][]float64{{1.5, math.Nextafter(2.25, 3)}, {3}}) {
		t.Error("a one-ulp change kept the digest")
	}
	if digest(g) == digest([][]float64{{1.5}, {2.25, 3}}) {
		t.Error("reshaped grid kept the digest")
	}
	if len(digest(g)) != 16 {
		t.Errorf("digest %q is not 16 hex digits", digest(g))
	}
}

func TestErrorRateCountsFailedCellsAndMismatches(t *testing.T) {
	var tl tally
	// A clean 100-cell sweep and a passing check.
	tl.add(100, sweepFailures(nil, 100), "")
	tl.check(true, "")
	// A sweep whose runner names two failed cells.
	serr := &runner.SweepError{Errs: []*runner.CellError{{Key: "a"}, {Key: "b"}}}
	tl.add(100, sweepFailures(fmt.Errorf("figure: %w", serr), 100), "two cells failed")
	// A sweep that failed without naming cells counts every cell.
	tl.add(10, sweepFailures(errors.New("boom"), 10), "boom")
	// An output-check mismatch.
	tl.check(false, "digest mismatch")
	if tl.attempted != 212 || tl.failed != 13 {
		t.Fatalf("attempted %d failed %d, want 212 and 13", tl.attempted, tl.failed)
	}
	if got, want := tl.errorRate(), 13.0/212; got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
	if len(tl.problems) != 3 {
		t.Errorf("problems %q, want three", tl.problems)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("empty tally has a non-zero error rate")
	}
}

func TestRequestStreamRepeatsThreeInEight(t *testing.T) {
	for _, seed := range []uint64{defaultSeed, heldOutSeed, 7} {
		s := requestStream(seed, 0)
		if len(s) != len(gridWorkloads)*len(gridCycleNs)*3 {
			t.Fatalf("seed %d: %d jobs", seed, len(s))
		}
		cells, distinct := 0, map[string]bool{}
		for _, r := range s {
			if n := len(r.SizesKB); n < 2 || n > 3 {
				t.Errorf("seed %d: job with %d sizes", seed, n)
			}
			for _, c := range r.Cells() {
				cells++
				distinct[c.Key()] = true
			}
		}
		if cells*5 != len(distinct)*8 {
			t.Errorf("seed %d: %d cells, %d distinct; want 5 in 8 distinct", seed, cells, len(distinct))
		}
		again, _ := json.Marshal(requestStream(seed, 0))
		first, _ := json.Marshal(s)
		if string(again) != string(first) {
			t.Errorf("seed %d: stream not reproducible", seed)
		}
	}
	a, _ := json.Marshal(requestStream(1, 0))
	b, _ := json.Marshal(requestStream(2, 0))
	c, _ := json.Marshal(requestStream(1, 1))
	if string(a) == string(b) || string(a) == string(c) {
		t.Error("two seeds or two rounds drew the same stream")
	}
}

func TestSpecsSeedZeroIsTheCatalog(t *testing.T) {
	for i, s := range specs(0, 0) {
		if s != workload.Catalog[i] || s.Seed == specs(1, 0)[i].Seed || s.Seed == specs(0, 1)[i].Seed {
			t.Fatalf("workload %s: seed mixing broken", s.Name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark's declaration at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}

// TestDefaultSeedIsPaperfigs checks that the default seed's recorded grid
// is the one paperfigs computes from its own suite.
func TestDefaultSeedIsPaperfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig 3-2 sweep")
	}
	s, err := experiments.NewSuite(scale)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.SpeedSizeGrid(context.Background(), nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(g.ExecNs), expected["figs-speedsize"][defaultSeed]; got != want {
		t.Errorf("paperfigs Fig 3-2 grid digest %s, recorded %s", got, want)
	}
}
