// Steady-state allocation measurement for the zero-allocation gates: the
// CI bench-smoke job fails when the core hot path allocates at steady
// state (see cmd/wfqbench's json subcommand). Each measurement counts only
// the allocations its measured loop makes (allocwindow.go).
package bench

import (
	"unsafe"

	"wfqueue/internal/affinity"
	"wfqueue/internal/core"
	"wfqueue/internal/scq"
	"wfqueue/internal/sharded"
)

// SteadyStateResult reports what one SteadyStateAllocs run observed.
type SteadyStateResult struct {
	Ops         int     // measured enqueue+dequeue pairs
	AllocsPerOp float64 // heap allocations per pair (expected: 0)
	BytesPerOp  float64 // heap bytes per pair (expected: 0)
	Recycled    uint64  // segments the queue reclaimed during measurement
}

// SteadyStateAllocs measures the heap allocations of the core queue's
// enqueue/dequeue hot path at steady state, with recycling on and segments
// small enough (shift 6, maxGarbage 1) that the measured window crosses
// many segment boundaries — so the number proves segment recycling, not
// just in-segment cell reuse. The queue is warmed through one full
// reclamation cycle first, then ops enqueue/dequeue pairs run in an
// allocation window on a single goroutine (the allocation behavior of
// the data structure is thread-count independent: the same code paths
// run, only their interleaving changes).
func SteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	q := core.New(1,
		core.WithSegmentShift(6),
		core.WithMaxGarbage(1),
		core.WithRecycling(true))
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	// Warm up past the first reclamation so the segment pool and handle
	// cache are populated: four segments' worth of pairs.
	warm := 4 << 6
	for i := 0; i < warm; i++ {
		q.Enqueue(h, p)
		q.Dequeue(h)
	}

	before := q.ReclaimedSegments()
	allocs, bytes := AllocsIn(func() {
		for i := 0; i < ops; i++ {
			q.Enqueue(h, p)
			q.Dequeue(h)
		}
	})
	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(allocs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		Recycled:    q.ReclaimedSegments() - before,
	}
}

// SCQSteadyStateAllocs measures the heap allocations of the SCQ ring's
// TryEnqueue/Dequeue hot path on a warm ring. The capacity is small enough
// (MinCapacity rounded up to 64) that the measured window wraps the ring
// hundreds of times, so the number proves the whole cycle — free-ring
// dequeue, slot publish, allocated-ring ticket, slot recycle — allocates
// nothing, not just that the first lap does. Expected: exactly 0 (the queue
// allocates only in New).
func SCQSteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	const capacity = 64
	q, err := scq.New(1, capacity)
	if err != nil {
		panic(err) // cannot happen: fixed valid parameters
	}
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	// Warm past several full ring wraps so every slot's cycle bits have
	// advanced off their initial values.
	for i := 0; i < 4*capacity; i++ {
		if err := h.TryEnqueue(p); err != nil {
			panic(err) // cannot happen: lone producer never fills 64 slots
		}
		h.Dequeue()
	}

	allocs, bytes := AllocsIn(func() {
		for i := 0; i < ops; i++ {
			if err := h.TryEnqueue(p); err != nil {
				panic(err)
			}
			h.Dequeue()
		}
	})
	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(allocs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
		Recycled:    uint64(ops / capacity), // full ring wraps the window crossed
	}
}

// CoalesceSteadyStateAllocs measures the heap allocations of the core
// queue's coalesced hot path (CoalescedEnqueue/CoalescedDequeue at the
// given window) at steady state, with the same small-segment recycling
// setup as SteadyStateAllocs. The coalescing buffers are fixed arrays
// inside the handle, so the expectation is exactly 0 at every window —
// window 1 exercises the passthrough, larger windows the flush/refill
// cycle. Run-grouped shape (a run of window enqueues, then window
// dequeues) so the window actually fills rather than degenerating through
// the dequeue-side flush.
func CoalesceSteadyStateAllocs(ops, window int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	if window < 1 {
		window = 1
	}
	q := core.New(1,
		core.WithSegmentShift(6),
		core.WithMaxGarbage(1),
		core.WithRecycling(true),
		core.WithCoalescing(window))
	h, err := q.Register()
	if err != nil {
		panic(err) // cannot happen: fresh queue, first handle
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	run := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for j := 0; j < window; j++ {
				q.CoalescedEnqueue(h, p)
			}
			for j := 0; j < window; j++ {
				q.CoalescedDequeue(h)
			}
		}
	}
	// Warm past the first reclamation cycle.
	run((4 << 6) / window)

	before := q.ReclaimedSegments()
	rounds := ops / window
	if rounds < 1 {
		rounds = 1
	}
	allocs, bytes := AllocsIn(func() { run(rounds) })
	n := rounds * window
	return SteadyStateResult{
		Ops:         n,
		AllocsPerOp: float64(allocs) / float64(n),
		BytesPerOp:  float64(bytes) / float64(n),
		Recycled:    q.ReclaimedSegments() - before,
	}
}

// TopoSteadyStateAllocs measures the heap allocations of the
// topology-aware sharded queue's hot path at steady state: enqueue/dequeue
// pairs (placement + distance-ordered stealing) interleaved with runs of
// EMPTY dequeues long enough to arm and climb the parking ladder, so the
// number proves the whole topology surface — precomputed steal tables, the
// parking EWMA, the bounded spin rungs and the Gosched rung — allocates
// nothing. A deterministic fake topology (8 CPUs, 2 LLC domains) keeps the
// measurement identical on every host. Expected: exactly 0.
func TopoSteadyStateAllocs(ops int) SteadyStateResult {
	if ops < 1 {
		ops = 1
	}
	infos := make([]affinity.CPUInfo, 8)
	for c := range infos {
		infos[c] = affinity.CPUInfo{CPU: c, Pkg: c / 4, Core: c / 2, LLC: c / 4, Node: c / 4}
	}
	cpu := 0
	q := sharded.New(4, sharded.WithLanes(4),
		sharded.WithTopology(affinity.Build(infos)),
		sharded.WithParking(),
		sharded.WithCPUSource(func() (int, bool) { cpu++; return cpu, true }),
		sharded.WithCoreOptions(core.WithSegmentShift(6), core.WithMaxGarbage(1), core.WithRecycling(true)))
	// One handle per lane, all driven by this goroutine in rotation: every
	// lane keeps receiving enqueues, so the cells the EMPTY sweeps poison on
	// foreign lanes are continually passed by that lane's own T and the
	// segments recycle (a lane polled but never fed retains segments by the
	// core's design — that is a workload property, not an allocation bug).
	var hs [4]*sharded.Handle
	for i := range hs {
		h, err := q.RegisterOnLane(i)
		if err != nil {
			panic(err) // cannot happen: fresh queue, capacity 4
		}
		hs[i] = h
	}
	v := new(uint64)
	p := unsafe.Pointer(v)

	// Warm every lane past its first reclamation cycle and arm the parking
	// EWMA (full windows of EMPTY sweeps).
	for i := 0; i < 4*(4<<6); i++ {
		h := hs[i%len(hs)]
		q.Enqueue(h, p)
		q.Dequeue(h)
	}
	for i := 0; i < 512; i++ {
		q.Dequeue(hs[i%len(hs)])
	}

	pass := func() {
		for i := 0; i < ops; i++ {
			h := hs[i%len(hs)]
			q.Enqueue(h, p)
			q.Dequeue(h)
			// One EMPTY full-queue sweep every few pairs keeps the parking
			// controller and the distance-ordered definitive pass in the
			// measured window.
			if i&7 == 0 {
				q.Dequeue(h)
			}
		}
	}
	// The sweeps interleaved with the pairs steal across lanes, which
	// grows each lane's segment chain a little past what the warm-up
	// above needed (a few segments in the first pass, none after), so one
	// unmeasured pass of the same traffic completes the warm-up.
	pass()
	allocs, bytes := AllocsIn(pass)
	return SteadyStateResult{
		Ops:         ops,
		AllocsPerOp: float64(allocs) / float64(ops),
		BytesPerOp:  float64(bytes) / float64(ops),
	}
}

// ChurnAllocsResult reports the heap traffic of a handle-lifecycle churn
// measurement (the analogous gate for Register/Release: expected exactly 0,
// since both pools pre-allocate every handle at construction).
type ChurnAllocsResult struct {
	Cycles         int
	AllocsPerCycle float64
	BytesPerCycle  float64
}

// churnAllocs measures cycle() after one warm-up call (the first
// acquisition may fault in lazily initialized runtime state, which is not
// the lifecycle's doing).
func churnAllocs(cycles int, cycle func()) ChurnAllocsResult {
	if cycles < 1 {
		cycles = 1
	}
	cycle()
	allocs, bytes := AllocsIn(func() {
		for i := 0; i < cycles; i++ {
			cycle()
		}
	})
	return ChurnAllocsResult{
		Cycles:         cycles,
		AllocsPerCycle: float64(allocs) / float64(cycles),
		BytesPerCycle:  float64(bytes) / float64(cycles),
	}
}

// CoreChurnAllocs measures the core queue's AcquireHandle/Release pair: the
// lock-free handle pool must hand slots out and take them back without
// touching the heap (DESIGN.md §6).
func CoreChurnAllocs(cycles int) ChurnAllocsResult {
	q := core.New(2)
	return churnAllocs(cycles, func() {
		h, err := q.AcquireHandle()
		if err != nil {
			panic(err) // cannot happen: capacity 2, one handle in flight
		}
		h.Release()
	})
}

// ShardedChurnAllocs measures the sharded queue's Register/Release pair,
// which cycles a pre-allocated shell plus one core handle per lane — also
// required to be allocation-free.
func ShardedChurnAllocs(cycles int) ChurnAllocsResult {
	q := sharded.New(2, sharded.WithLanes(2))
	return churnAllocs(cycles, func() {
		h, err := q.Register()
		if err != nil {
			panic(err)
		}
		h.Release()
	})
}
