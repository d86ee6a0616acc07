package writebuf

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/check"
)

// logSink is a single serial unit with a fixed busy time per write that
// logs every write handed to it.
type logSink struct {
	free int64
	log  []string
}

func (s *logSink) StartWrite(now int64, addr uint64, words int) int64 {
	start := max(now, s.free)
	s.free = start + 3 + int64(words)
	s.log = append(s.log, fmt.Sprintf("write %#x/%d req %d start %d", addr, words, now, start))
	return start + 1 + int64(words)
}

func (s *logSink) NextFree() int64 { return s.free }

// logTracer logs every tracer call.
type logTracer struct{ log []string }

func (t *logTracer) WriteStarted(ready int64, addr uint64, words int, accepted int64) {
	t.log = append(t.log, fmt.Sprintf("started %#x/%d ready %d accepted %d", addr, words, ready, accepted))
}
func (t *logTracer) FullStall(from, until int64) {
	t.log = append(t.log, fmt.Sprintf("stall %d-%d", from, until))
}
func (t *logTracer) Match(now int64, addr uint64) {
	t.log = append(t.log, fmt.Sprintf("match %#x at %d", addr, now))
}

// naiveBuf is the reference FIFO: a plain slice that shifts on every
// removal, with the buffer's timing rules written out directly.
type naiveBuf struct {
	depth   int
	sink    Sink
	tr      Tracer
	queue   []entry
	matches int64
	stalls  int64
	// midMatches counts matches that left writes queued behind them.
	midMatches int
}

func (b *naiveBuf) start(e entry, at int64) {
	accepted := b.sink.StartWrite(at, e.addr, e.words)
	b.tr.WriteStarted(at, e.addr, e.words, accepted)
}

func (b *naiveBuf) drain(now int64) {
	for len(b.queue) > 0 {
		e := b.queue[0]
		if max(e.ready, b.sink.NextFree()) >= now {
			return
		}
		b.start(e, e.ready)
		b.queue = b.queue[1:]
	}
}

func (b *naiveBuf) enqueue(now int64, addr uint64, words int, ready int64) int64 {
	ready = max(ready, now)
	b.drain(now)
	release := now
	if b.depth == 0 {
		accepted := b.sink.StartWrite(ready, addr, words)
		b.tr.WriteStarted(ready, addr, words, accepted)
		release = max(now, accepted)
	} else {
		for len(b.queue) >= b.depth {
			e := b.queue[0]
			accepted := b.sink.StartWrite(e.ready, e.addr, e.words)
			b.tr.WriteStarted(e.ready, e.addr, e.words, accepted)
			b.queue = b.queue[1:]
			release = max(release, accepted)
		}
		b.queue = append(b.queue, entry{addr: addr, words: words, ready: ready})
	}
	if release > now {
		b.stalls += release - now
		b.tr.FullStall(now, release)
	}
	return release
}

func (b *naiveBuf) flushMatching(now int64, addr uint64, words int) bool {
	match := -1
	for i, e := range b.queue {
		if overlaps(e.addr, e.words, addr, words) {
			match = i
		}
	}
	if match < 0 {
		return false
	}
	b.matches++
	if match < len(b.queue)-1 {
		b.midMatches++
	}
	b.tr.Match(now, addr)
	for _, e := range b.queue[:match+1] {
		b.start(e, max(e.ready, now))
	}
	b.queue = b.queue[match+1:]
	return true
}

func (b *naiveBuf) flushAll(now int64) int64 {
	last := now
	for _, e := range b.queue {
		at := max(e.ready, now)
		last = b.sink.StartWrite(at, e.addr, e.words)
		b.tr.WriteStarted(at, e.addr, e.words, last)
	}
	b.queue = nil
	return last
}

// TestRingMatchesNaiveFIFO drives the ring buffer and the naive FIFO with
// the same seeded stream of drains, enqueues, read matches (hitting heads,
// middles and tails of the queue) and full flushes, at depths 0–8, and
// requires identical sink traffic, tracer calls, return values and
// statistics. check's FIFO oracle audits the ring's order and occupancy
// throughout.
func TestRingMatchesNaiveFIFO(t *testing.T) {
	for depth := 0; depth <= 8; depth++ {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(depth)))
			rs, ns := &logSink{}, &logSink{}
			rt, nt := &logTracer{}, &logTracer{}
			ring := MustNew(depth, rs)
			ring.SetTracer(rt)
			chk := check.New(&check.Options{})
			oracle := chk.BufOracle("ring", depth)
			ring.SetAuditor(oracle)
			ref := &naiveBuf{depth: depth, sink: ns, tr: nt}

			var now int64
			var wraps int
			for op := 0; op < 2000; op++ {
				now += int64(rng.IntN(6))
				addr := uint64(rng.IntN(64)) * 4
				words := 1 << rng.IntN(3)
				var got, want any
				switch k := rng.IntN(10); {
				case k < 5:
					ready := now + int64(rng.IntN(4))
					got, want = ring.Enqueue(now, addr, words, ready), ref.enqueue(now, addr, words, ready)
				case k < 7:
					ring.Drain(now)
					ref.drain(now)
				case k < 9:
					got, want = ring.FlushMatching(now, addr, words), ref.flushMatching(now, addr, words)
				default:
					got, want = ring.FlushAll(now), ref.flushAll(now)
				}
				if got != want {
					t.Fatalf("depth %d seed %d op %d: ring returned %v, naive %v", depth, seed, op, got, want)
				}
				if ring.Len() != len(ref.queue) || ring.Len() != oracle.Len() {
					t.Fatalf("depth %d seed %d op %d: ring holds %d, naive %d, oracle %d",
						depth, seed, op, ring.Len(), len(ref.queue), oracle.Len())
				}
				if err := chk.Err(); err != nil {
					t.Fatalf("depth %d seed %d op %d: %v", depth, seed, op, err)
				}
				if err := ring.CheckInvariants(); err != nil {
					t.Fatalf("depth %d seed %d op %d: %v", depth, seed, op, err)
				}
				if ring.Len() > 0 && ring.head+ring.Len() > depth {
					wraps++
				}
			}
			if !reflect.DeepEqual(rs.log, ns.log) || !reflect.DeepEqual(rt.log, nt.log) {
				t.Fatalf("depth %d seed %d: ring and naive FIFO diverged (%d/%d sink writes, %d/%d tracer calls)",
					depth, seed, len(rs.log), len(ns.log), len(rt.log), len(nt.log))
			}
			if ring.MatchEvents != ref.matches || ring.FullStallCycles != ref.stalls {
				t.Fatalf("depth %d seed %d: matches %d/%d, stall cycles %d/%d",
					depth, seed, ring.MatchEvents, ref.matches, ring.FullStallCycles, ref.stalls)
			}
			if depth > 1 && (wraps == 0 || ref.midMatches == 0) {
				t.Errorf("depth %d seed %d: %d wrapped states, %d mid-queue matches; want both",
					depth, seed, wraps, ref.midMatches)
			}
		}
	}
}
