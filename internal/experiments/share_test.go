package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shareOrgs are the organizations the replay-sharing tests sweep: both
// set sizes and a write-through, write-allocate variant, whose store
// traffic goes through the write buffer.
func shareOrgs() []engine.Org {
	wt := OrgFor(16, 4, 1)
	wt.ICache.WritePolicy, wt.DCache.WritePolicy = cache.WriteThrough, cache.WriteThrough
	wt.DCache.WriteAllocate = true
	return []engine.Org{OrgFor(8, 4, 1), OrgFor(32, 8, 2), wt}
}

// shareMems are the memories the replay-sharing tests sweep: the paper's
// default and one Section 5 uniform-latency point.
var shareMems = []mem.Config{mem.DefaultConfig(), mem.UniformLatency(260, mem.Rate1Per2)}

// TestSharedReplaysMatchPerCell: a suite that shares replays across cycle
// times gives, in every cell over all sixteen CycleTimesNs, exactly what a
// fresh per-cell Profile.Replay and the single-phase system.Simulate give.
func TestSharedReplaysMatchPerCell(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	s.SetExec(ExecOptions{Workers: 2})
	for _, m := range shareMems {
		for _, org := range shareOrgs() {
			var cells []runner.Cell[cellOut]
			for _, cy := range CycleTimesNs {
				cells = s.replayCellsFor(cells, org, engine.Timing{CycleNs: cy, Mem: m, WriteBufDepth: 4})
			}
			outs, err := s.runCells(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			for n, tr := range s.Traces {
				p, err := engine.BuildProfile(org, tr)
				if err != nil {
					t.Fatal(err)
				}
				for j, cy := range CycleTimesNs {
					tm := engine.Timing{CycleNs: cy, Mem: m, WriteBufDepth: 4}
					got := outs[j*len(s.Traces)+n]
					want, err := p.Replay(tm)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := system.Simulate(system.Config{CycleNs: cy, ICache: org.ICache, DCache: org.DCache,
						WriteBufDepth: 4, Mem: m}, tr)
					if err != nil {
						t.Fatal(err)
					}
					for name, r := range map[string]system.Result{"Replay": want, "Simulate": ref} {
						if got.ExecNs != r.ExecTimeNs() || got.CPR != r.Warm.CyclesPerRef() || got.Warm != r.Warm {
							t.Errorf("%v %v %s @%dns: shared cell %v/%v, per-cell %s %v/%v",
								m, org.DCache, tr.Name, cy, got.ExecNs, got.CPR, name, r.ExecTimeNs(), r.Warm.CyclesPerRef())
						}
					}
				}
			}
		}
	}
}

// TestSharedSpeedSizeGridMatchesPerCell: the Fig 3-2 grid of a sharing
// suite equals the geometric means of per-cell system.Simulate runs.
func TestSharedSpeedSizeGridMatchesPerCell(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	sizes := []int{8, 32}
	g, err := s.SpeedSizeGrid(context.Background(), sizes, CycleTimesNs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, kb := range sizes {
		org := OrgFor(kb, 4, 1)
		for j, cy := range CycleTimesNs {
			execs := make([]float64, len(s.Traces))
			for n, tr := range s.Traces {
				res, err := system.Simulate(system.Config{CycleNs: cy, ICache: org.ICache, DCache: org.DCache,
					WriteBufDepth: 4, Mem: mem.DefaultConfig()}, tr)
				if err != nil {
					t.Fatal(err)
				}
				execs[n] = res.ExecTimeNs()
			}
			if want := stats.MustGeoMean(execs); g.ExecNs[i][j] != want {
				t.Errorf("%d KB @%dns: grid %v, per-cell %v", kb, cy, g.ExecNs[i][j], want)
			}
		}
	}
}

// TestReplaySharingCounters: at the default memory the sixteen cycle
// times quantize to nine timing classes, so each (organization, trace)
// runs nine replays and shares seven; armed selfcheck or tracing shares
// nothing.
func TestReplaySharingCounters(t *testing.T) {
	classes := map[mem.Timing]bool{}
	for _, cy := range CycleTimesNs {
		q := mem.DefaultConfig().MustQuantize(cy)
		q.CycleNs = 0
		classes[q] = true
	}
	if len(classes) != 9 {
		t.Fatalf("default memory over CycleTimesNs has %d timing classes, want 9", len(classes))
	}
	cases := []struct {
		name             string
		exec             ExecOptions
		runs, sharedRuns int64
	}{
		{"plain", ExecOptions{}, 9, 7},
		{"selfcheck", ExecOptions{SelfCheck: &check.Options{Every: 512}}, 16, 0},
		{"trace", ExecOptions{Trace: &simtrace.Options{Attrib: true}}, 16, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := MustNewSuiteWithTracesForTest(t)
			reg := obs.NewRegistry()
			c.exec.Workers, c.exec.Metrics = 2, reg
			s.SetExec(c.exec)
			sizes := []int{8, 16}
			if _, err := s.SpeedSizeGrid(context.Background(), sizes, CycleTimesNs, 1); err != nil {
				t.Fatal(err)
			}
			units := int64(len(sizes) * len(s.Traces))
			if got := reg.Counter(obs.MReplaysRun).Value(); got != c.runs*units {
				t.Errorf("replays_run = %d, want %d", got, c.runs*units)
			}
			if got := reg.Counter(obs.MReplaysShared).Value(); got != c.sharedRuns*units {
				t.Errorf("replays_shared = %d, want %d", got, c.sharedRuns*units)
			}
		})
	}
}

// TestPanicInSlotBecomesError: a panic inside a single-flight slot is kept
// as the slot's error, carrying the panic value, for the first caller and
// every later one — never a done slot with neither a value nor an error.
func TestPanicInSlotBecomesError(t *testing.T) {
	s := NewSuiteWithTraces(append(sweepTestTraces(), nil))
	org := OrgFor(8, 4, 1)
	for call := 0; call < 2; call++ {
		e := s.profileEntry(2, org) // the nil trace panics the behavioural pass
		var sp *slotPanic
		if e.p != nil || !errors.As(e.err, &sp) {
			t.Fatalf("profile slot call %d: p=%v err=%v, want a slot panic", call, e.p, e.err)
		}
		if !runner.Permanent(e.err) {
			t.Errorf("slot panic %v is retryable", e.err)
		}
	}

	// A replay slot over a missing profile panics on its first replay; the
	// cell sharing its timing class gets the same error.
	poisoned := &profileEntry{}
	for _, cy := range []int{40, 44} {
		_, err := s.replay(poisoned, baseTiming(cy), nil)
		var sp *slotPanic
		if !errors.As(err, &sp) {
			t.Fatalf("replay slot @%dns: err=%v, want a slot panic", cy, err)
		}
		var rerr runtime.Error
		if !errors.As(err, &rerr) {
			t.Errorf("slot panic %v does not carry the runtime error it caught", err)
		}
	}
}

// eightTraces are eight small synthetic traces standing in for Table 1.
func eightTraces() []*trace.Trace {
	var out []*trace.Trace
	for k := 0; k < 8; k++ {
		t := workload.Random(1500, 2048<<k, 0.15+0.05*float64(k%3), uint64(k)+1)
		t.Name = fmt.Sprintf("rnd-%d", k)
		t.WarmStart = 300
		out = append(out, t)
	}
	return out
}

// TestChainPassCounters: a cold Fig 3-2 over eight traces builds its 88
// direct-mapped profiles in eight behavioural passes, one per trace, and
// an armed selfcheck suite in 88, one per profile. Both grids are equal.
func TestChainPassCounters(t *testing.T) {
	cases := []struct {
		name             string
		exec             ExecOptions
		passes, profiles int64
	}{
		{"plain", ExecOptions{}, 8, 88},
		{"selfcheck", ExecOptions{SelfCheck: &check.Options{Every: 4096}}, 88, 88},
	}
	var grids []*analysis.PerfGrid
	for _, c := range cases {
		s := NewSuiteWithTraces(eightTraces())
		reg := obs.NewRegistry()
		c.exec.Workers, c.exec.Metrics = 2, reg
		s.SetExec(c.exec)
		g, err := s.SpeedSizeGrid(context.Background(), nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
		if got := reg.Counter(obs.MCellsPlanned).Value(); got != 1408 {
			t.Errorf("%s: %d cells, want 1408", c.name, got)
		}
		if got := reg.Counter(obs.MProfilePasses).Value(); got != c.passes {
			t.Errorf("%s: profile_passes = %d, want %d", c.name, got, c.passes)
		}
		if got := reg.Counter(obs.MProfilesBuilt).Value(); got != c.profiles {
			t.Errorf("%s: profiles_built = %d, want %d", c.name, got, c.profiles)
		}
	}
	if !reflect.DeepEqual(grids[0], grids[1]) {
		t.Error("the chain-pass grid differs from the one-profile-per-pass grid")
	}
}

// TestChainPassFigures: Fig 4-1 builds its direct-mapped column in one
// pass per trace and each set-associative profile in a pass of its own;
// Fig 3-1 over the same sizes then reuses the direct-mapped profiles.
func TestChainPassFigures(t *testing.T) {
	s := NewSuiteWithTraces(eightTraces())
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 2, Metrics: reg})
	sizes := []int{8, 16, 32}
	if _, err := s.RunFigure41(context.Background(), sizes, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFigure31(context.Background(), sizes); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter(obs.MProfilePasses).Value(), int64(8+3*8); got != want {
		t.Errorf("profile_passes = %d, want %d", got, want)
	}
	if got, want := reg.Counter(obs.MProfilesBuilt).Value(), int64(2*3*8); got != want {
		t.Errorf("profiles_built = %d, want %d", got, want)
	}
}
