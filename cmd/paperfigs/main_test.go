package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestKnownFigure(t *testing.T) {
	for _, f := range figures {
		if !knownFigure(f.name) {
			t.Errorf("figure %q not known to itself", f.name)
		}
	}
	if knownFigure("fig9-9") {
		t.Error("unknown figure accepted")
	}
}

func TestFigureNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] {
			t.Errorf("duplicate figure name %q", f.name)
		}
		seen[f.name] = true
		if f.title == "" || f.run == nil {
			t.Errorf("figure %q incomplete", f.name)
		}
	}
	// Every paper artifact has an entry.
	for _, want := range []string{"table1", "table2", "fig3-1", "fig3-2", "fig3-3", "fig3-4",
		"fig4-1", "fig4-2", "fig4-3", "table3", "fig5-1", "fig5-2", "fig5-3", "fig5-4", "multilevel"} {
		if !seen[want] {
			t.Errorf("missing paper artifact %q", want)
		}
	}
}

func TestGridCSV(t *testing.T) {
	header, rows := gridCSV([]int{4, 8}, []int{20, 40}, [][]float64{{1.5, 2.5}, {3, 4}})
	if len(header) != 3 || header[0] != "total_kb" || header[2] != "40ns" {
		t.Fatalf("header = %v", header)
	}
	if len(rows) != 2 || rows[0][0] != "4" || rows[1][2] != "4" {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.HasPrefix(rows[0][1], "1.5") {
		t.Fatalf("value formatting: %v", rows[0])
	}
}

func TestCycleIdx(t *testing.T) {
	cycles := []int{20, 40, 60}
	if cycleIdx(cycles, 40) != 1 {
		t.Error("found index wrong")
	}
	if cycleIdx(cycles, 33) != -1 {
		t.Error("missing cycle not -1")
	}
}

func TestJoinFloats(t *testing.T) {
	if got := joinFloats([]float64{1, 2.75}); got != "1.0 2.8" {
		t.Errorf("joinFloats = %q", got)
	}
}

func TestWriteCSVDisabled(t *testing.T) {
	r := &figRunner{} // no csvDir: writeCSV is a no-op
	if err := r.writeCSV("x", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVToDir(t *testing.T) {
	r := &figRunner{csvDir: t.TempDir()}
	if err := r.writeCSV("x", []string{"a", "b"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure52SweptOnce: figures 5-2, 5-3 and 5-4 all derive from the
// Fig 5-2 sweep, which runs once per invocation however many of them are
// selected.
func TestFigure52SweptOnce(t *testing.T) {
	tr := workload.Random(2000, 4096, 0.2, 7)
	tr.WarmStart = 200
	suite := experiments.NewSuiteWithTraces([]*trace.Trace{tr})
	reg := obs.NewRegistry()
	suite.SetExec(experiments.ExecOptions{Workers: 2, Metrics: reg})
	r := &figRunner{ctx: context.Background(), suite: suite}
	for _, run := range []func(*figRunner, io.Writer) error{runFig52, runFig53, runFig54} {
		if err := run(r, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(experiments.LatenciesNs) * len(experiments.TransferRates) * len(experiments.BlockSizesW))
	if got := reg.Counter(obs.MCellsPlanned).Value(); got != want {
		t.Errorf("cells_planned = %d after figures 5-2..5-4, want one Fig 5-2 sweep of %d", got, want)
	}
}
