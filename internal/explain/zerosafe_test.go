package explain_test

// Regression tests for the degenerate-run guards: zero-ref and zero-miss
// windows must produce zero percentages (never NaN or Inf) everywhere a
// share or ratio is derived, and an empty trace must be refused by
// validation before any percentage math can run.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/system"
	"repro/internal/trace"
)

// TestEmptyTraceRejected: both simulator cores refuse an empty trace with
// a clean error — no run, no report, no division by a zero ref count.
func TestEmptyTraceRejected(t *testing.T) {
	org := engine.Org{
		ICache: l1(1024, 4, 1, cache.Random, false),
		DCache: l1(1024, 4, 1, cache.Random, false),
	}
	empty := &trace.Trace{Name: "empty"}

	cfg := sysConfig(org)
	opts := explain.All()
	cfg.Instruments.Explain = &opts
	if _, err := system.Simulate(cfg, empty); err == nil {
		t.Fatal("system.Simulate accepted an empty trace")
	}

	exp := explain.New(explain.All())
	if _, err := engine.BuildProfileObserved(org, empty, &system.Observers{Explain: exp}); err == nil {
		t.Fatal("engine.BuildProfileObserved accepted an empty trace")
	}
}

// TestZeroSafeShares: the share and ratio accessors on zero-valued inputs
// return exact zeros, the contract every renderer leans on.
func TestZeroSafeShares(t *testing.T) {
	var c3 explain.ThreeC
	comp, capa, conf := c3.SharePct()
	if comp != 0 || capa != 0 || conf != 0 {
		t.Fatalf("zero ThreeC shares = %v/%v/%v, want zeros", comp, capa, conf)
	}
	if r := (explain.SideReport{Label: "D"}).MissRatio(); r != 0 {
		t.Fatalf("zero-ref MissRatio = %v, want 0", r)
	}
}

// TestZeroMissWarmWindowRenders runs a trace whose warm window is all
// hits (every block resident before the boundary), so the warm report has
// refs but zero misses, and a second trace whose warm boundary sits
// inside the final couplet, so the warm window degenerates to zero refs.
// Both reports must render NaN-free with finite shares.
func TestZeroMissWarmWindowRenders(t *testing.T) {
	org := engine.Org{
		ICache: l1(1024, 4, 1, cache.LRU, false),
		DCache: l1(1024, 4, 1, cache.LRU, true),
	}

	// Zero-miss warm window: hammer one block, warm-start after the
	// compulsory misses are paid.
	refs := make([]trace.Ref, 64)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint32(i % 2), Kind: trace.Load}
	}
	allhit := &trace.Trace{Name: "allhit", Refs: refs, WarmStart: 32}

	// Zero-ref warm window: the boundary points at the load riding the
	// final ifetch couplet, which the couplet loop never crosses.
	degen := &trace.Trace{Name: "degenerate", Refs: []trace.Ref{
		{Addr: 0, Kind: trace.Load},
		{Addr: 4, Kind: trace.Ifetch},
		{Addr: 8, Kind: trace.Load},
	}, WarmStart: 2}

	for _, tr := range []*trace.Trace{allhit, degen} {
		cfg := sysConfig(org)
		opts := explain.All()
		cfg.Instruments.Explain = &opts
		sys := system.MustNew(cfg)
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		warm := sys.Explainer().ReportWarm()
		if wm := res.Warm.IfetchMisses + res.Warm.LoadMisses + res.Warm.StoreMisses; wm != 0 {
			t.Fatalf("%s: warm window not degenerate: %d misses", tr.Name, wm)
		}
		comp, capa, conf := warm.Total3C().SharePct()
		for _, v := range []float64{comp, capa, conf} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite warm share %v", tr.Name, v)
			}
		}
		for _, s := range warm.Sides {
			if r := s.MissRatio(); math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("%s: side %s non-finite miss ratio %v", tr.Name, s.Label, r)
			}
		}
		var buf strings.Builder
		explain.RenderText(&buf, warm)
		for _, bad := range []string{"NaN", "Inf"} {
			if strings.Contains(buf.String(), bad) {
				t.Fatalf("%s: warm render contains %s:\n%s", tr.Name, bad, buf.String())
			}
		}
	}
}
