package engine

// Chunk sizes of the profile's record storage: blocks start small and
// double up to a cap, so a profile grows without copying what it holds and
// wastes at most one partly filled block. The block list itself starts
// with room for listCap blocks, which at these sizes hold over half a
// million records.
const (
	firstChunk = 1024
	maxChunk   = 1 << 16
	listCap    = 16
)

// chunks is an append-only sequence stored in blocks that are allocated as
// it grows and never copied.
type chunks[T any] struct {
	full [][]T // filled blocks
	cur  []T   // the block being filled
}

func (c *chunks[T]) add(v T) {
	if len(c.cur) == cap(c.cur) {
		size := firstChunk
		if c.cur != nil {
			if c.full == nil {
				c.full = make([][]T, 0, listCap)
			}
			c.full = append(c.full, c.cur)
			size = min(2*cap(c.cur), maxChunk)
		}
		c.cur = make([]T, 0, size)
	}
	c.cur = append(c.cur, v)
}

// blocks returns every block, in order.
func (c *chunks[T]) blocks() [][]T {
	if len(c.cur) == 0 {
		return c.full
	}
	return append(c.full, c.cur)
}

// addrReader walks the side array of addresses in event order.
type addrReader struct {
	rest [][]uint64
	cur  []uint64
}

func (r *addrReader) next() uint64 {
	for len(r.cur) == 0 {
		r.cur, r.rest = r.rest[0], r.rest[1:]
	}
	a := r.cur[0]
	r.cur = r.cur[1:]
	return a
}
