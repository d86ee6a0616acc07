package system_test

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestRunSelfCheckClean runs the simulator with the lockstep oracle
// attached across representative configurations and requires zero
// divergences and results identical to an unchecked run.
func TestRunSelfCheckClean(t *testing.T) {
	l1 := func(size, block, assoc int) cache.Config {
		return cache.Config{SizeWords: size, BlockWords: block, Assoc: assoc,
			Replacement: cache.Random, WritePolicy: cache.WriteBack, Seed: 1}
	}
	cfgs := []system.Config{}
	base := system.DefaultConfig()
	base.ICache, base.DCache = l1(1024, 4, 1), l1(1024, 4, 1)
	cfgs = append(cfgs, base)

	assoc := base
	assoc.ICache, assoc.DCache = l1(1024, 4, 4), l1(1024, 4, 4)
	assoc.ICache.Replacement, assoc.DCache.Replacement = cache.LRU, cache.FIFO
	cfgs = append(cfgs, assoc)

	unified := base
	unified.Unified = true
	unified.DCache = l1(2048, 8, 2)
	cfgs = append(cfgs, unified)

	wt := base
	wt.DCache.WritePolicy = cache.WriteThrough
	wt.WriteBufDepth = 0
	cfgs = append(cfgs, wt)

	sub := base
	sub.DCache = l1(2048, 16, 2)
	sub.DCache.FetchWords = 4
	sub.ICache = sub.DCache
	cfgs = append(cfgs, sub)

	l2 := base
	l2.L2 = &system.L2Config{
		Cache:        l1(8192, 8, 1),
		AccessCycles: 3, WriteBufDepth: 4,
	}
	cfgs = append(cfgs, l2)

	tr := workload.Random(6000, 4000, 0.3, 9)
	for i, cfg := range cfgs {
		plain, err := system.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("cfg %d: unchecked run: %v", i, err)
		}
		cfg.Instruments.Check = &check.Options{Every: 256}
		checked, err := system.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("cfg %d: selfcheck run diverged: %v", i, err)
		}
		if checked != plain {
			t.Errorf("cfg %d: selfcheck changed the result:\nplain   %+v\nchecked %+v",
				i, plain, checked)
		}
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

// TestRunSelfCheckKeyStability guards the checkpoint-key property: the
// Instruments field must not leak into the JSON encoding that runner keys
// hash.
func TestRunSelfCheckKeyStability(t *testing.T) {
	cfg := system.DefaultConfig()
	plainJSON := mustJSON(t, cfg)
	cfg.Instruments.Check = &check.Options{Every: 1}
	if got := mustJSON(t, cfg); got != plainJSON {
		t.Errorf("Instruments leak into the JSON encoding:\n%s\nvs\n%s", got, plainJSON)
	}
}
