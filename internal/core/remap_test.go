package core

// Tests of findCell's cell placement: the cache remap that spreads
// consecutive cell ids across cache lines, and the spare segment a handle
// keeps after losing a list-extension race.

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// The remap must be a permutation of a segment's slots at every supported
// segment size, and the identity where a segment is too small to spread.
func TestCellRemapPermutation(t *testing.T) {
	for shift := uint(1); shift <= 20; shift++ {
		hi, lo := remapShifts(shift)
		q := &Queue{segShift: shift, segMask: 1<<shift - 1, remapHi: hi, remapLo: lo}
		n := q.SegmentSize()
		seen := make([]bool, n)
		for i := int64(0); i < n; i++ {
			j := q.cellSlot(i)
			if j < 0 || j >= n {
				t.Fatalf("segShift %d: cell %d maps to slot %d, outside [0, %d)", shift, i, j, n)
			}
			if seen[j] {
				t.Fatalf("segShift %d: slot %d assigned twice", shift, j)
			}
			seen[j] = true
			if shift <= cellRemapBits && j != i {
				t.Fatalf("segShift %d: cell %d maps to slot %d, want the identity", shift, i, j)
			}
			// The slot depends on the in-segment offset only.
			if k := q.cellSlot(i + 3*n); k != j {
				t.Fatalf("segShift %d: cell %d maps to %d but cell %d to %d", shift, i+3*n, k, i, j)
			}
		}
	}
}

// lineSpan returns the first and last 64-byte line a cell's bytes occupy.
func lineSpan(c *cell) (first, last uintptr) {
	a := uintptr(unsafe.Pointer(c))
	return a / 64, (a + unsafe.Sizeof(cell{}) - 1) / 64
}

// Cells i and i+1 of one segment — the pair the FAA hands to two
// concurrent operations — must never share a cache line once the segment
// is large enough for the remap to permute it. Checked on the addresses
// findCell actually returns.
func TestCellRemapSeparatesNeighbours(t *testing.T) {
	for shift := uint(cellRemapBits + 1); shift <= 20; shift++ {
		q := New(1, WithSegmentShift(shift))
		h := mustRegister(t, q)
		sp := unsafe.Pointer(q.oldestSegmentForTest())
		n := q.SegmentSize()
		prev := q.findCell(h, &sp, 0)
		for i := int64(1); i < n; i++ {
			c := q.findCell(h, &sp, i)
			pf, pl := lineSpan(prev)
			cf, cl := lineSpan(c)
			if pl >= cf && cl >= pf {
				t.Fatalf("segShift %d: cells %d and %d share a cache line (%p, %p)", shift, i-1, i, prev, c)
			}
			prev = c
		}
		h.Release()
	}
}

// A handle whose list-extension CAS loses keeps the segment it allocated
// and serves its next extension from it, in both memory modes: the second
// extension must not heap-allocate.
func TestLostExtensionKeepsSpare(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		q := New(2, WithSegmentShift(4), WithRecycling(recycle))
		a := mustRegister(t, q)
		b := mustRegister(t, q)
		n := q.SegmentSize()

		// B finds segment 0's next nil and allocates segment 1; before its
		// CAS, A extends the list with its own segment 1.
		var won *cell
		extending = func(*segment) {
			extending = nil
			sp := unsafe.Pointer(q.oldestSegmentForTest())
			won = q.findCell(a, &sp, n)
		}
		sp := unsafe.Pointer(q.oldestSegmentForTest())
		c := q.findCell(b, &sp, n)
		extending = nil

		if c != won {
			t.Fatalf("recycle=%v: the loser found a cell outside the winner's segment", recycle)
		}
		spare := b.segCache
		if spare == nil || unsafe.Pointer(spare) == sp || !b.segCacheSpare {
			t.Fatalf("recycle=%v: the loser did not keep its unpublished segment", recycle)
		}
		if got := ctrLoad(&b.stats.Segments); got != 0 {
			t.Fatalf("recycle=%v: the loser counts %d linked segments, want 0", recycle, got)
		}
		allocs := ctrLoad(&b.stats.SegAllocs)

		// B's next extension (segment 2) is served from the spare.
		c = q.findCell(b, &sp, 2*n)
		if got := ctrLoad(&b.stats.SegAllocs); got != allocs {
			t.Fatalf("recycle=%v: next extension allocated (SegAllocs %d → %d)", recycle, allocs, got)
		}
		if b.segCache != nil || b.segCacheSpare || unsafe.Pointer(spare) != sp {
			t.Fatalf("recycle=%v: next extension did not link the spare", recycle)
		}
		if sid(spare) != 2 || atomic.LoadPointer(&spare.next) != nil {
			t.Fatalf("recycle=%v: spare relinked as id %d", recycle, sid(spare))
		}
		if ctrLoad(&b.stats.SegCacheHits) != 1 || ctrLoad(&b.stats.Segments) != 1 {
			t.Fatalf("recycle=%v: counters %+v", recycle, b.stats)
		}
		if atomic.LoadPointer(&c.val) != nil || atomic.LoadPointer(&c.enq) != nil ||
			atomic.LoadPointer(&c.deq) != nil {
			t.Fatalf("recycle=%v: spare cell not in the initial state", recycle)
		}

		// The queue still works across the raced boundary.
		for i := int64(0); i < 3*n; i++ {
			q.Enqueue(a, box(i))
		}
		for i := int64(0); i < 3*n; i++ {
			if v, ok := q.Dequeue(b); !ok || unbox(v) != i {
				t.Fatalf("recycle=%v: dequeue %d: got (%v,%v)", recycle, i, v, ok)
			}
		}
	}
}
