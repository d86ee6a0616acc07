package engine

import (
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/workload"
)

// TestEventRecordCompact: a record is 16 bytes, and with its share of the
// address side array a catalog profile holds at most 32 bytes per event.
// Record storage grows in blocks up to maxChunk, never by copying.
func TestEventRecordCompact(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 16 {
		t.Fatalf("event record is %d bytes, want 16", sz)
	}
	for _, name := range []string{"mu3", "savec", "rd2n4"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := spec.MustGenerate(0.05)
		for _, kb := range []int{4, 64} {
			cfg := l1(kb*1024/8, 4, 1, cache.WriteBack, false)
			p, err := BuildProfile(Org{ICache: cfg, DCache: cfg}, tr)
			if err != nil {
				t.Fatal(err)
			}
			var records, addrs int
			for _, blk := range p.events {
				if cap(blk) > maxChunk {
					t.Errorf("%s/%dKB: record block of %d exceeds %d", name, kb, cap(blk), maxChunk)
				}
				records += len(blk)
			}
			for _, blk := range p.addrs {
				addrs += len(blk)
			}
			if avg := float64(16*records+8*addrs) / float64(records); avg > 32 {
				t.Errorf("%s/%dKB: %.1f bytes per event, want <= 32", name, kb, avg)
			}
		}
	}
}

// TestChunksKeepOrder: the chunked sequence returns every value in order
// across block boundaries.
func TestChunksKeepOrder(t *testing.T) {
	var c chunks[int]
	const n = firstChunk*7 + 5
	for i := 0; i < n; i++ {
		c.add(i)
	}
	i := 0
	for _, blk := range c.blocks() {
		for _, v := range blk {
			if v != i {
				t.Fatalf("value %d at position %d", v, i)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("%d values back, want %d", i, n)
	}
}
