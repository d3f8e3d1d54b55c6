package core

import (
	"sync/atomic"
	"unsafe"
)

// sid atomically reads a segment's id; see newSegment for why this must be
// atomic when recycling is enabled.
func sid(s *segment) int64 { return atomic.LoadInt64(&s.id) }

// newSegment allocates (or reuses) a segment with the given id and all
// cells in the initial (⊥, ⊥e, ⊥d) state. The handle's one-segment cache is
// consulted first, then with recycling the shared lock-free pool
// (segpool.go), so the common steady-state case — a thread reusing the
// segment it itself retired, or the spare it kept after losing a list
// extension race — touches no shared state at all. h is nil only for the
// initial segment built by New, before any handle exists.
func (q *Queue) newSegment(h *Handle, id int64) *segment {
	s := (*segment)(nil)
	spare := false
	if h != nil && h.segCache != nil {
		s, h.segCache = h.segCache, nil
		spare, h.segCacheSpare = h.segCacheSpare, false
		ctrInc(&h.stats.SegCacheHits)
	} else if q.recycle {
		if s = q.pool.pop(); s != nil && h != nil {
			ctrInc(&h.stats.SegPoolHits)
		}
	}
	if s != nil {
		// id is stored atomically: a cleaner that loaded a reference to
		// this segment before it was recycled may still read the id (the
		// read is gated — it can only influence the CAS on q.I, which then
		// fails — but it must be a defined read).
		atomic.StoreInt64(&s.id, id)
		s.next = nil
		if !spare {
			// A retired segment's cells hold their last states. A spare
			// was never published, so its cells are still in the initial
			// state (newSegment cleared or allocated them).
			clear(s.cells)
		}
		return s
	}
	if h != nil {
		ctrInc(&h.stats.SegAllocs)
	}
	return &segment{id: id, cells: make([]cell, q.segMask+1)}
}

// recycleSegment takes back a retired segment the hazard protocol has
// proved unreachable: into the handle's cache if empty, else the shared
// pool, else dropped for the GC (the pool is bounded; see segpool.go).
func (q *Queue) recycleSegment(h *Handle, s *segment) {
	if h != nil && h.segCache == nil {
		h.segCache, h.segCacheSpare = s, false
		return
	}
	q.pool.push(s)
}

// extending, when non-nil, runs between a list extender's allocation and
// its CAS on s.next; a variable so the whitebox tests can make an extension
// lose its race deterministically.
var extending func(s *segment)

// findCell locates cell Q[cellID], extending the segment list as needed
// (paper lines 33-52). sp points at a segment pointer — either a local
// traversal variable or a handle's head/tail field, which cleaners may CAS
// concurrently — and is updated to the segment containing the cell.
func (q *Queue) findCell(h *Handle, sp *unsafe.Pointer, cellID int64) *cell {
	orig := atomic.LoadPointer(sp)
	s := (*segment)(orig)
	//wfqlint:bounded(SEGS, segment-list walk from the cached anchor: sid advances one per hop and reclamation (§3.6) bounds the live list length)
	for i := sid(s); i < cellID>>q.segShift; i++ {
		next := (*segment)(atomic.LoadPointer(&s.next))
		if next == nil {
			// The list needs another segment: allocate one and try to
			// extend the list. A failed CAS means another thread already
			// extended it; the loser's segment was never published, so it
			// becomes this handle's spare for its next extension
			// (newSegment has just emptied the cache).
			tmp := q.newSegment(h, i+1)
			if extending != nil {
				extending(s)
			}
			if atomic.CompareAndSwapPointer(&s.next, nil, unsafe.Pointer(tmp)) {
				ctrInc(&h.stats.Segments)
			} else {
				h.segCache, h.segCacheSpare = tmp, true
			}
			next = (*segment)(atomic.LoadPointer(&s.next))
		}
		s = next
	}
	// Update the caller's segment hint only when it moved: the store is a
	// GC-write-barriered pointer write, and in the common case (1023 of
	// 1024 operations with the default segment size) the hint is already
	// correct.
	if unsafe.Pointer(s) != orig {
		atomic.StorePointer(sp, unsafe.Pointer(s))
	}
	return &s.cells[q.cellSlot(cellID)]
}

// cellRemapBits is the rotation of findCell's cache remap, the same
// transform as the SCQ ring's remap (internal/scq): consecutive cell ids
// land 2^3 = 8 slots apart, 192 B on 64-bit and 96 B on 32-bit, so the
// cells the FAA hands to concurrent operations never share a 64-byte line.
const cellRemapBits = 3

// remapShifts returns the right and left shift amounts of the remap for a
// segment of 2^segShift cells. Segments of at most 2^cellRemapBits cells
// have no room to spread and get the identity: a right shift by segShift
// clears every offset and a left shift by 0 keeps it.
func remapShifts(segShift uint) (hi, lo uint) {
	if segShift <= cellRemapBits {
		return segShift, 0
	}
	return segShift - cellRemapBits, cellRemapBits
}

// cellSlot maps cell id i to its slot in its segment: the in-segment
// offset rotated left by cellRemapBits within segShift bits, which is a
// permutation of [0, 2^segShift). The masked shift amounts let the
// compiler drop its oversized-shift handling.
func (q *Queue) cellSlot(i int64) int64 {
	j := i & q.segMask
	return j>>(q.remapHi&63) | (j<<(q.remapLo&63))&q.segMask
}

// advanceEndForLinearizability bumps the head or tail index *e to at least
// cid (paper lines 53-55), preserving Invariants 4 and 8: a value is only
// deposited in (taken from) a cell whose index is below T (H) by the time
// the operation completes.
func advanceEndForLinearizability(e *int64, cid int64) {
	//wfqlint:bounded(THREADS, paper lines 53-55: returns once the observed index reaches cid; a failed CAS means another thread advanced e, which is monotonic, so at most cid - v rounds)
	for {
		v := atomic.LoadInt64(e)
		if v >= cid || atomic.CompareAndSwapInt64(e, v, cid) {
			return
		}
	}
}
