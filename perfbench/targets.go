package main

import (
	"errors"
	"unsafe"

	"wfqueue"
	"wfqueue/internal/core"
	"wfqueue/internal/faabench"
	"wfqueue/internal/scq"
)

// Participants. Workers 0 and 1 each produce and consume; the drainer is
// the third handle: it writes the pairs-deep prefill as producer 2 during
// set-up and empties the queue as consumer 2 after the workers join.
const (
	nWorkers   = 2
	nProducers = 3
	prefillID  = 2
	drainerID  = 2
	maxHandles = 3
	// boundedCapacity is the bounded-pairs ring size: occupancy never
	// exceeds nWorkers, so every ErrFull is a spurious refusal.
	boundedCapacity = 1024
)

// endpoint is one participant's view of the layer under test. enq offers
// producer p's value seq and reports whether it was accepted; deq returns
// the producer and sequence number of the value it removed.
type endpoint interface {
	enq(p int, seq uint64) bool
	deq() (p int, seq uint64, ok bool)
}

// target is a layer set up for one pass: a queue (or the FAA floor, or
// nothing) with a registered endpoint per worker plus the drainer.
type target struct {
	workers [nWorkers]endpoint
	drainer endpoint
	// values is false for the targets that carry no values (the FAA floor
	// and the bare loop); their passes have nothing to check.
	values bool
	// counters reads the layer's execution-path counters; nil when the
	// layer keeps none. Called only while no worker runs.
	counters func() map[string]uint64
	release  func()
}

// prefill offers n values as producer prefillID through the drainer.
func (t *target) prefill(n uint64) {
	for s := uint64(0); s < n; s++ {
		t.drainer.enq(prefillID, s)
	}
}

// Façade values encode (producer, seq) in one uint64.
const seqBits = 48

func encode(p int, seq uint64) uint64 { return uint64(p)<<seqBits | seq }

func decode(v uint64) (int, uint64) { return int(v >> seqBits), v & (1<<seqBits - 1) }

type facadeEP struct{ h *wfqueue.Handle[uint64] }

func (e facadeEP) enq(p int, seq uint64) bool { e.h.Enqueue(encode(p, seq)); return true }

func (e facadeEP) deq() (int, uint64, bool) {
	v, ok := e.h.Dequeue()
	p, s := decode(v)
	return p, s, ok
}

type boundedEP struct {
	h *wfqueue.BoundedHandle[uint64]
}

func (e boundedEP) enq(p int, seq uint64) bool {
	err := e.h.TryEnqueue(encode(p, seq))
	if err != nil && !errors.Is(err, wfqueue.ErrFull) {
		panic("perfbench: TryEnqueue: " + err.Error())
	}
	return err == nil
}

func (e boundedEP) deq() (int, uint64, bool) {
	v, ok := e.h.Dequeue()
	p, s := decode(v)
	return p, s, ok
}

// newFacade builds wfqueue.Queue[uint64] with default options.
func newFacade() *target {
	q := wfqueue.New[uint64](maxHandles)
	var hs [maxHandles]*wfqueue.Handle[uint64]
	for i := range hs {
		hs[i] = must(q.Register())
	}
	return &target{
		workers:  [nWorkers]endpoint{facadeEP{hs[0]}, facadeEP{hs[1]}},
		drainer:  facadeEP{hs[drainerID]},
		values:   true,
		counters: func() map[string]uint64 { return coreCounters(q.Stats(), q.ReclaimedSegments()) },
		release: func() {
			for _, h := range hs {
				h.Release()
			}
		},
	}
}

// newBounded builds wfqueue.BoundedQueue[uint64], the SCQ ring's façade.
func newBounded() *target {
	q := must(wfqueue.NewBounded[uint64](maxHandles, boundedCapacity))
	var hs [maxHandles]*wfqueue.BoundedHandle[uint64]
	for i := range hs {
		hs[i] = must(q.Register())
	}
	return &target{
		workers:  [nWorkers]endpoint{boundedEP{hs[0]}, boundedEP{hs[1]}},
		drainer:  boundedEP{hs[drainerID]},
		values:   true,
		counters: func() map[string]uint64 { return prefixed("scq.", q.Stats()) },
		release: func() {
			for _, h := range hs {
				h.Release()
			}
		},
	}
}

// ids maps (producer, seq) to a pointer that is never reused: the address
// of byte seq in the producer's own off-heap range. The direct passes hand
// these to internal/core and internal/scq, so their loops box nothing and
// allocate nothing, and a dequeued pointer decodes back to its value.
type ids struct{ ranges [nProducers][]byte }

func newIDs(mem *offHeap, limits []uint64) *ids {
	d := &ids{}
	for p, n := range limits {
		d.ranges[p] = mem.bytes(int(n))
	}
	return d
}

func (d *ids) ptr(p int, seq uint64) unsafe.Pointer { return unsafe.Pointer(&d.ranges[p][seq]) }

func (d *ids) value(v unsafe.Pointer) (int, uint64) {
	for p, r := range d.ranges {
		if len(r) == 0 {
			continue
		}
		if off := uintptr(v) - uintptr(unsafe.Pointer(&r[0])); off < uintptr(len(r)) {
			return p, uint64(off)
		}
	}
	return -1, 0
}

type coreEP struct {
	q  *core.Queue
	h  *core.Handle
	id *ids
}

func (e coreEP) enq(p int, seq uint64) bool { e.q.Enqueue(e.h, e.id.ptr(p, seq)); return true }

func (e coreEP) deq() (int, uint64, bool) {
	v, ok := e.q.Dequeue(e.h)
	if !ok {
		return 0, 0, false
	}
	p, s := e.id.value(v)
	return p, s, true
}

// newCore builds internal/core's queue with the façade's default options.
func newCore(id *ids) *target {
	q := core.New(maxHandles)
	var hs [maxHandles]*core.Handle
	for i := range hs {
		hs[i] = must(q.Register())
	}
	return &target{
		workers:  [nWorkers]endpoint{coreEP{q, hs[0], id}, coreEP{q, hs[1], id}},
		drainer:  coreEP{q, hs[drainerID], id},
		values:   true,
		counters: func() map[string]uint64 { return coreCounters(q.Stats(), q.ReclaimedSegments()) },
		release: func() {
			for _, h := range hs {
				h.Release()
			}
		},
	}
}

type scqEP struct {
	h  *scq.Handle
	id *ids
}

func (e scqEP) enq(p int, seq uint64) bool {
	err := e.h.TryEnqueue(e.id.ptr(p, seq))
	if err != nil && !errors.Is(err, scq.ErrFull) {
		panic("perfbench: scq TryEnqueue: " + err.Error())
	}
	return err == nil
}

func (e scqEP) deq() (int, uint64, bool) {
	v, ok := e.h.Dequeue()
	if !ok {
		return 0, 0, false
	}
	p, s := e.id.value(v)
	return p, s, true
}

// newSCQ builds internal/scq's queue at the bounded façade's size.
func newSCQ(id *ids) *target {
	q := must(scq.New(maxHandles, boundedCapacity))
	var hs [maxHandles]*scq.Handle
	for i := range hs {
		hs[i] = must(q.Register())
	}
	return &target{
		workers:  [nWorkers]endpoint{scqEP{hs[0], id}, scqEP{hs[1], id}},
		drainer:  scqEP{hs[drainerID], id},
		values:   true,
		counters: func() map[string]uint64 { return prefixed("scq.", q.Stats()) },
		release: func() {
			for _, h := range hs {
				h.Release()
			}
		},
	}
}

// faaEP is the paper's FAA floor: the two fetch-and-adds every FAA-based
// queue performs, with no values.
type faaEP struct{ b *faabench.Bench }

func (e faaEP) enq(int, uint64) bool { e.b.Enqueue(); return true }

func (e faaEP) deq() (int, uint64, bool) { e.b.Dequeue(); return 0, 0, false }

func newFAA() *target {
	e := faaEP{faabench.New()}
	return &target{workers: [nWorkers]endpoint{e, e}, drainer: e, release: func() {}}
}

// loopEP does nothing: the loop's own cost (the work, the RNG, the clock
// checks), subtracted from every layer's time per operation.
type loopEP struct{}

func (loopEP) enq(int, uint64) bool { return true }

func (loopEP) deq() (int, uint64, bool) { return 0, 0, false }

func newLoop() *target {
	return &target{workers: [nWorkers]endpoint{loopEP{}, loopEP{}}, drainer: loopEP{}, release: func() {}}
}

func coreCounters(c core.Counters, reclaimed uint64) map[string]uint64 {
	return map[string]uint64{
		"core.enq_fast":       c.EnqFast,
		"core.enq_slow":       c.EnqSlow,
		"core.deq_fast":       c.DeqFast,
		"core.deq_slow":       c.DeqSlow,
		"core.deq_empty":      c.DeqEmpty,
		"core.fast_cas_fails": c.FastCASFails,
		"core.spin_fallbacks": c.SpinFallbacks,
		"core.help_enq":       c.HelpEnq,
		"core.help_deq":       c.HelpDeq,
		"core.cleanups":       c.Cleanups,
		"core.segments":       c.Segments,
		"core.seg_allocs":     c.SegAllocs,
		"core.reclaimed":      reclaimed,
	}
}

func prefixed(prefix string, m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[prefix+k] = v
	}
	return out
}

func must[T any](v T, err error) T {
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	return v
}
