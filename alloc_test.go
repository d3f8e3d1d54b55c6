package wfqueue_test

// Allocation behavior of the public generic facade: after warm-up, the
// box-recycling path (boxes.go) makes Enqueue/Dequeue of any fixed-size T —
// and the batched variants — allocation-free, the shared sync.Pool keeps
// cross-handle producer/consumer splits from allocating per value, and a
// fill carves its boxes from slabs instead of allocating one per value.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"wfqueue"
	"wfqueue/internal/bench"
)

func setFinalizer[T any](v *T, f func(*T)) { runtime.SetFinalizer(v, f) }

// eventuallyCollected forces GCs until the finalizer fires (or times out).
func eventuallyCollected(ch <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// warmAllocQueue builds a recycling queue with tiny segments and runs
// enough pairs to populate the segment pool and the handle's box free
// list.
func warmAllocQueue[T any](t *testing.T, v T) (*wfqueue.Queue[T], *wfqueue.Handle[T]) {
	t.Helper()
	q := wfqueue.New[T](2,
		wfqueue.WithSegmentShift(4),
		wfqueue.WithMaxGarbage(1),
		wfqueue.WithRecycling(true))
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		h.Enqueue(v)
		h.Dequeue()
	}
	return q, h
}

func TestFacadeZeroAllocPointer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	x := new(int)
	_, h := warmAllocQueue(t, x)
	defer h.Release()
	allocs := testing.AllocsPerRun(10000, func() {
		h.Enqueue(x)
		h.Dequeue()
	})
	if allocs != 0 {
		t.Errorf("Queue[*int] enqueue+dequeue: %v allocs/op after warm-up, want 0", allocs)
	}
}

func TestFacadeZeroAllocScalar(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	_, h := warmAllocQueue(t, uint64(7))
	defer h.Release()
	allocs := testing.AllocsPerRun(10000, func() {
		h.Enqueue(99)
		h.Dequeue()
	})
	if allocs != 0 {
		t.Errorf("Queue[uint64] enqueue+dequeue: %v allocs/op after warm-up, want 0", allocs)
	}
}

func TestFacadeZeroAllocBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	_, h := warmAllocQueue(t, uint64(7))
	defer h.Release()
	vs := []uint64{1, 2, 3, 4, 5}
	dst := make([]uint64, 5)
	// Warm the batch scratch buffer and box supply at this batch size.
	for i := 0; i < 64; i++ {
		h.EnqueueBatch(vs)
		h.DequeueBatch(dst)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		h.EnqueueBatch(vs)
		h.DequeueBatch(dst)
	})
	if allocs != 0 {
		t.Errorf("batched enqueue+dequeue: %v allocs/op after warm-up, want 0", allocs)
	}
}

// TestBoxRecyclingCrossHandle splits production and consumption across
// handles (the consumer's free list fills while the producer's drains; the
// shared Pool rebalances) and checks values survive the box round-trips
// intact.
func TestBoxRecyclingCrossHandle(t *testing.T) {
	const n = 20000
	q := wfqueue.New[int](2, wfqueue.WithRecycling(true), wfqueue.WithSegmentShift(4))
	prod, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer prod.Release()
		for i := 0; i < n; i++ {
			prod.Enqueue(i)
		}
	}()
	seen := make([]bool, n)
	got := 0
	for got < n {
		if v, ok := cons.Dequeue(); ok {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("value %d out of range or duplicated", v)
			}
			seen[v] = true
			got++
		}
	}
	wg.Wait()
	cons.Release()
}

// TestFacadeFillAllocs counts the heap allocations of a 65,536-value fill
// into a fresh Queue[uint64]: the boxes come from 64-box slabs, so the
// count is one allocation per slab and two per segment (header and cells),
// not one per value. The count is exact (bench.AllocsIn sees only the
// fill's own allocations); the slack covers the shared Pool allocating its
// per-P locals on its first Get and again after each GC clears it.
func TestFacadeFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	const (
		n     = 1 << 16
		slabs = (n + 63) / 64
		slack = 16
	)
	q := wfqueue.New[uint64](1)
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	allocs, _ := bench.AllocsIn(func() {
		for i := uint64(0); i < n; i++ {
			h.Enqueue(i)
		}
	})
	segs := q.Stats().SegAllocs
	bound := slabs + 2*segs + slack
	t.Logf("%d-value fill: %d allocations (%d slabs, %d segments; bound %d)", n, allocs, slabs, segs, bound)
	if allocs > bound {
		t.Errorf("%d-value fill made %d allocations, want <= %d", n, allocs, bound)
	}
}

// bigBox is over the slab byte budget, so its boxes are carved one per
// slab: the pre-slab behaviour.
type bigBox [600]uint64

// TestFacadeZeroAllocSlabExtremes round-trips the two slab-size edge cases:
// a zero-size T (no division by its size) and a T over the slab budget (one
// box per slab). Both must read 0 allocs/op once warm, and keep values.
func TestFacadeZeroAllocSlabExtremes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is meaningless under -race")
	}
	t.Run("struct{}", func(t *testing.T) {
		_, h := warmAllocQueue(t, struct{}{})
		defer h.Release()
		allocs := testing.AllocsPerRun(10000, func() {
			h.Enqueue(struct{}{})
			if _, ok := h.Dequeue(); !ok {
				t.Fatal("empty after enqueue")
			}
		})
		if allocs != 0 {
			t.Errorf("Queue[struct{}] enqueue+dequeue: %v allocs/op after warm-up, want 0", allocs)
		}
	})
	t.Run("over-budget", func(t *testing.T) {
		var v bigBox
		_, h := warmAllocQueue(t, v)
		defer h.Release()
		allocs := testing.AllocsPerRun(1000, func() {
			v[0]++
			v[len(v)-1] = v[0]
			h.Enqueue(v)
			got, ok := h.Dequeue()
			if !ok || got != v {
				t.Fatal("value changed in transit")
			}
		})
		if allocs != 0 {
			t.Errorf("Queue[bigBox] enqueue+dequeue: %v allocs/op after warm-up, want 0", allocs)
		}
	})
}

// TestBoxZeroedOnRecycle checks that recycling clears the box: a queue of
// pointers must not keep dequeued values reachable through its free lists,
// nor through a slab that other, still-queued boxes keep alive.
// (Whitebox-by-effect: we can't inspect the boxes, but a GC after the
// dequeues must be able to collect the values, observed via finalizers.)
func TestBoxZeroedOnRecycle(t *testing.T) {
	for _, queued := range []int{0, 8} {
		t.Run(fmt.Sprintf("queued=%d", queued), func(t *testing.T) {
			// [2]int is 16 bytes: too big for the tiny allocator, which
			// would pack v with the queued values into one block and
			// keep it alive with them.
			q := wfqueue.New[*[2]int](1, wfqueue.WithRecycling(true))
			h, err := q.Register()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()

			collected := make(chan struct{}, 1)
			func() {
				v := &[2]int{42}
				setFinalizer(v, func(*[2]int) { collected <- struct{}{} })
				h.Enqueue(v)
				// These boxes come from the slab v's box was carved from
				// and stay queued, so that slab stays reachable.
				for i := 0; i < queued; i++ {
					h.Enqueue(new([2]int))
				}
				got, ok := h.Dequeue()
				if !ok || got != v {
					t.Fatal("round-trip failed")
				}
			}()
			if !eventuallyCollected(collected) {
				t.Error("dequeued value still reachable; a recycled box retains the old pointer")
			}
			if got := q.Len(); got != queued {
				t.Errorf("Len = %d, want %d still queued", got, queued)
			}
		})
	}
}
