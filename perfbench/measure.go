package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/runner"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: p90 needs at least 100 samples, p50 at least 20.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9)) // 0.9*100 is 90.00000000000001
	if k < 1 {
		k = 1
	}
	return k
}

// reportable reports whether n samples put at least minBeyond beyond the
// p-quantile.
func reportable(n int, p float64) bool { return n > 0 && n-rank(n, p) >= minBeyond }

// percentile returns the nearest-rank p-quantile of xs, and false when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if !reportable(len(xs), p) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], true
}

// median is the middle value of xs (the mean of the middle two for an
// even count), 0 for none. Round-level figures are medians over rounds,
// which are few; the minBeyond rule applies to per-request samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest fingerprints a grid of simulated values by their exact bits, so
// two grids share a digest only if every value is bit-identical.
func digest(rows [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range rows {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// tally counts operations attempted and failed: sweep cells, HTTP
// requests and output checks. error_rate is failed / attempted.
type tally struct {
	attempted, failed int
	problems          []string // first few failure descriptions, for stderr
}

func (t *tally) add(attempted, failed int, why string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.problems) < 8 {
		t.problems = append(t.problems, why)
	}
}

// check records one output check.
func (t *tally) check(ok bool, why string) {
	if ok {
		t.add(1, 0, "")
	} else {
		t.add(1, 1, why)
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// sweepFailures counts the failed cells of a sweep of planned cells: the
// cells a *runner.SweepError names, or every cell when the sweep failed
// some other way.
func sweepFailures(err error, planned int) int {
	if err == nil {
		return 0
	}
	var se *runner.SweepError
	if errors.As(err, &se) && len(se.Errs) > 0 {
		return len(se.Errs)
	}
	return planned
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
	}
}

// heapAllocs is the cumulative heap bytes allocated, cheap enough to read
// around every call of the decomposition pass.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
