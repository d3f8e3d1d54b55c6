package scq

// Tests of the ring's batched enqueue when dequeuers poison reserved
// tickets: every reserved ticket is tried in order, indices keep their
// batch order, and EMPTY verdicts stay sound and linearizable while
// producers publish through TryEnqueueBatch.

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wfqueue/internal/lincheck"
)

// A dequeuer that overtook tail poisons one ticket in the middle of a
// batch's reserved run. The index refused there must move on to the next
// reserved ticket, not to a fresh one: the batch keeps its order, no
// reserved ticket is skipped untried, and one extra ticket covers the
// index the poisoned ticket displaced.
func TestEnqueueBatchTriesEveryReservedTicket(t *testing.T) {
	r := &ring{}
	r.initRing(ringMinOrder, false) // R = 8, tickets start at 8
	// Two dequeuers took head tickets 8 and 9; the second has already
	// visited its slot and advanced it to cycle 1.
	r.head.Store(10)
	if _, got := r.visitAt(9); got {
		t.Fatal("visitAt on an empty ring returned a value")
	}

	r.enqueueBatch([]uint64{0, 1, 2})

	// Tickets 8..10 reserved, 9 refused, 11 reserved for the displaced
	// index: tail ends at 12.
	if got := r.tail.Load(); got != 12 {
		t.Fatalf("tail = %d after the batch, want 12", got)
	}
	for tk, want := range map[uint64]uint64{8: 0, 10: 1, 11: 2} {
		cyc, safe, idx := r.unpack(atomic.LoadUint64(&r.slots[r.remap(tk)]))
		if cyc != 1 || safe != 1 || idx != want {
			t.Fatalf("ticket %d slot = (cycle %d, safe %d, index %d), want (1, 1, %d)", tk, cyc, safe, idx, want)
		}
	}
	if got := r.threshold.Load(); got != r.thresh3 {
		t.Fatalf("threshold = %d after the batch, want %d", got, r.thresh3)
	}

	// The delayed first dequeuer finds index 0; the rest drain in order.
	if idx, got := r.visitAt(8); !got || idx != 0 {
		t.Fatalf("visitAt(8) = (%d, %v), want (0, true)", idx, got)
	}
	for _, want := range []uint64{1, 2} {
		if idx, ok, _ := r.dequeue(0); !ok || idx != want {
			t.Fatalf("dequeue = (%d, %v), want (%d, true)", idx, ok, want)
		}
	}
	if _, ok, _ := r.dequeue(0); ok {
		t.Fatal("dequeue succeeded on a drained ring")
	}
}

// Producers publish through TryEnqueueBatch into a tiny queue while
// consumers drain with Dequeue and DequeueBatch, so dequeuers constantly
// overtake tail and poison the producers' reserved tickets. Besides
// exactly-once delivery and per-producer order, every EMPTY verdict is
// checked for soundness: it is refuted when more values had been enqueued
// before the call began than could have been removed by the time it
// returned.
func TestBatchEnqueueEmptySound(t *testing.T) {
	const (
		producers   = 2
		perProducer = 20000
		deqBatch    = 4
	)
	q, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var enqDone, deqDone, total, empties atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, h *Handle) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			seq := 0
			for seq < perProducer {
				b := 2 + rng.Intn(7)
				if b > perProducer-seq {
					b = perProducer - seq
				}
				vs := make([]unsafe.Pointer, b)
				for i := range vs {
					vs[i] = box(uint64(p)<<32 | uint64(seq+i+1))
				}
				for off := 0; off < b; {
					n, err := h.TryEnqueueBatch(vs[off:])
					enqDone.Add(int64(n))
					off += n
					if err != nil {
						if !errors.Is(err, ErrFull) {
							t.Errorf("TryEnqueueBatch: %v", err)
							return
						}
						runtime.Gosched()
					}
				}
				seq += b
			}
		}(p, h)
	}

	// Each consumer has at most one call in flight or returned but not yet
	// counted in deqDone, removing at most deqBatch values.
	const othersInFlight = deqBatch
	results := make([][]uint64, 2)
	for c := range results {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, h *Handle) {
			defer wg.Done()
			var local []uint64
			dst := make([]unsafe.Pointer, deqBatch)
			for total.Load() < producers*perProducer {
				before := enqDone.Load()
				var n int
				var empty bool
				if c == 0 {
					v, ok := h.Dequeue()
					if ok {
						dst[0], n = v, 1
					}
					empty = !ok
				} else {
					n = h.DequeueBatch(dst)
					empty = n < len(dst)
				}
				if empty {
					empties.Add(1)
					if removed := deqDone.Load() + othersInFlight + int64(n); before > removed {
						t.Errorf("consumer %d: EMPTY with %d values enqueued before the call and at most %d removed by its end",
							c, before, removed)
						return
					}
				}
				for i := 0; i < n; i++ {
					local = append(local, unbox(dst[i]))
				}
				deqDone.Add(int64(n))
				total.Add(int64(n))
				if n == 0 {
					runtime.Gosched()
				}
			}
			results[c] = local
		}(c, h)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if empties.Load() == 0 {
		t.Error("no dequeue ever returned EMPTY; the check did not run")
	}

	seen := make(map[uint64]bool, producers*perProducer)
	for c, local := range results {
		last := map[uint64]uint64{}
		for _, v := range local {
			if seen[v] {
				t.Fatalf("value %x dequeued twice", v)
			}
			seen[v] = true
			p, s := v>>32, v&0xffffffff
			if l, ok := last[p]; ok && s <= l {
				t.Fatalf("consumer %d: producer %d seq %d after %d", c, p, s, l)
			}
			last[p] = s
		}
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), producers*perProducer)
	}
}

// runBatchEnqueueHistory records one small concurrent history on a
// capacity-4 queue: TryEnqueueBatch calls of 1..3 values against Dequeue
// and DequeueBatch(2) calls. A batch call contributes one Enq per
// published value, sharing the call's interval; a short DequeueBatch
// contributes one EMPTY Deq. Refused values are left out of the history:
// ErrFull reports that every slot was in flight, and a slot held by a
// preempted enqueue or dequeue counts there while its value is not yet (or
// no longer) in the abstract queue, so CheckBounded can reject a FULL
// verdict that the free ring's protocol allows. The check here is the
// batched enqueue's: FIFO order, exactly-once delivery, the capacity bound
// and sound EMPTY verdicts.
func runBatchEnqueueHistory(t *testing.T, nthreads, opsPerThread int, seed int64) {
	t.Helper()
	q, err := New(nthreads, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	logs := make([]lincheck.History, nthreads)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < nthreads; i++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		go func(i int, h *Handle) {
			defer done.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*977))
			var log lincheck.History
			add := func(kind lincheck.Kind, v uint64, ok bool, s, e int64) {
				log = append(log, lincheck.Op{Kind: kind, Value: v, OK: ok, Start: s, End: e, Thread: i})
			}
			start.Wait()
			next := uint64(i)<<32 + 1
			for k := 0; k < opsPerThread; k++ {
				switch rng.Intn(4) {
				case 0, 1:
					b := 1 + rng.Intn(3)
					vs := make([]unsafe.Pointer, b)
					for j := range vs {
						vs[j] = box(next + uint64(j))
					}
					s := now()
					n, err := h.TryEnqueueBatch(vs)
					e := now()
					if err != nil && !errors.Is(err, ErrFull) {
						t.Errorf("TryEnqueueBatch: %v", err)
					}
					for j := 0; j < n; j++ {
						add(lincheck.Enq, next+uint64(j), true, s, e)
					}
					next += uint64(b)
				case 2:
					s := now()
					v, ok := h.Dequeue()
					e := now()
					var x uint64
					if ok {
						x = unbox(v)
					}
					add(lincheck.Deq, x, ok, s, e)
				default:
					dst := make([]unsafe.Pointer, 2)
					s := now()
					n := h.DequeueBatch(dst)
					e := now()
					for j := 0; j < n; j++ {
						add(lincheck.Deq, unbox(dst[j]), true, s, e)
					}
					if n < len(dst) {
						add(lincheck.Deq, 0, false, s, e)
					}
				}
			}
			logs[i] = log
		}(i, h)
	}
	start.Done()
	done.Wait()

	var hist lincheck.History
	for _, l := range logs {
		hist = append(hist, l...)
	}
	ok, err := lincheck.CheckBounded(hist, q.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("non-linearizable bounded history with batched enqueues:\n%v", hist)
	}
}

// TestBatchEnqueueLinearizableBounded checks many small histories mixing
// batched enqueues, scalar and batched dequeues on the smallest ring, so
// the ring wraps, fills and empties within one history.
func TestBatchEnqueueLinearizableBounded(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		runBatchEnqueueHistory(t, 3, 5, int64(trial)*131+7)
	}
}
