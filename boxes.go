package wfqueue

import (
	"sync"
	"unsafe"
)

// Value boxes. The queues below the façades store unsafe.Pointer, so each
// value travels in a heap box of type T. Boxes are recycled: a Dequeue
// returns the box its value arrived in to the dequeuing handle's free list,
// and the next Enqueue on that handle reuses it, so balanced traffic cycles
// through a handful of boxes and allocates nothing. A handle whose free list
// runs dry (every fill; any producer-heavy handle) first tries the queue's
// shared sync.Pool, where consumer-heavy handles spill, and on a miss carves
// a slab of boxes in one allocation: one box for the caller, the rest onto
// its free list. Filling a queue thus pays one allocation and one Pool miss
// per slab rather than one of each per value.

// boxFreeListCap bounds each handle's private box free list. Past it,
// boxes spill to the queue's shared sync.Pool, which rebalances
// producer-heavy vs consumer-heavy handles. It must hold a slab's spare
// boxes (boxSlabMax-1).
const boxFreeListCap = 256

// boxSlabBytes is the byte budget of one slab and boxSlabMax its box count
// limit. A slab stays reachable while any of its boxes is, so one live box
// pins at most boxSlabBytes (or a single box, when T is larger than that).
const (
	boxSlabBytes = 4096
	boxSlabMax   = 64
)

// boxPool is the per-queue state every handle's boxCache shares.
type boxPool[T any] struct {
	// shared holds boxes that overflowed a handle's free list. It has no
	// New: a miss carves a slab instead.
	shared sync.Pool
	// slab is the number of boxes carved per miss.
	slab int
}

func newBoxPool[T any]() *boxPool[T] {
	var zero T
	n := boxSlabMax
	if size := unsafe.Sizeof(zero); size > 0 {
		// A zero-size T costs no memory; take the maximum.
		n = min(max(int(boxSlabBytes/size), 1), boxSlabMax)
	}
	return &boxPool[T]{slab: n}
}

// boxCache is one handle's box supply: a private LIFO in front of the
// queue's boxPool. Single-goroutine, like the handle that owns it.
type boxCache[T any] struct {
	pool *boxPool[T]
	free []*T
}

// newBoxCache pre-sizes the free list to its cap so put's append and
// carve's refill never allocate; handles are created off the hot path.
func newBoxCache[T any](p *boxPool[T]) boxCache[T] {
	return boxCache[T]{pool: p, free: make([]*T, 0, boxFreeListCap)}
}

// get produces an empty box: from the free list, else the shared Pool, else
// a freshly carved slab.
func (c *boxCache[T]) get() *T {
	if n := len(c.free) - 1; n >= 0 {
		b := c.free[n]
		c.free[n] = nil
		c.free = c.free[:n]
		return b
	}
	if b, ok := c.pool.shared.Get().(*T); ok {
		return b
	}
	return c.carve()
}

// carve allocates a slab, returns its first box and pushes the rest (the
// free list is empty here, so they fit), highest index first so later gets
// walk the slab in address order.
func (c *boxCache[T]) carve() *T {
	slab := make([]T, c.pool.slab)
	for i := len(slab) - 1; i > 0; i-- {
		c.free = append(c.free, &slab[i])
	}
	return &slab[0]
}

// put recycles an emptied box. The box is zeroed first so neither it nor
// the slab it belongs to pins the previous value for the garbage collector.
func (c *boxCache[T]) put(b *T) {
	var zero T
	*b = zero
	if len(c.free) < cap(c.free) {
		c.free = append(c.free, b)
		return
	}
	c.pool.shared.Put(b)
}
