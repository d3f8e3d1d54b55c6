package core

// spinPollStride is how many pause iterations helpEnq waits between polls
// of the contended cell word, so a spinning dequeuer stops hammering the
// cache line the enqueuer needs for its deposit.
const spinPollStride = 16

// pauseSink keeps the pause loop's arithmetic observable so no future
// compiler pass can argue the loop is dead.
var pauseSink uint64

// pause busy-waits for about n iterations of trivial arithmetic without
// touching shared memory. It never blocks, never yields, and never loads
// the contended word, so a waiting thread takes its cache line traffic off
// the interconnect entirely.
func pause(n int) {
	s := uint64(0)
	i := 0
	//wfqlint:bounded(SPIN_POLL, the only call site (helpEnq's poll interval) passes at most spinPollStride, and i advances every iteration)
	for i < n {
		s += uint64(i)
		i++
	}
	if s == ^uint64(0) {
		pauseSink = s
	}
}

// ParkSpinMax caps one exported Pause call, in pause-loop iterations. It is
// the top spin rung of the sharded layer's empty-queue parking ladder
// (DESIGN.md §9): a repeatedly-empty dequeuer doubles its pause from a few
// dozen iterations up to this cap, then escalates to runtime.Gosched. As a
// compile-time constant it prices the ladder into the wait-freedom
// certificate — one parked call costs at most ParkSpinMax + O(1) steps.
const ParkSpinMax = 4096

// Pause busy-waits for about n iterations of trivial arithmetic without
// touching shared memory, clamping n to ParkSpinMax — the exported spin
// primitive for bounded wait ladders layered above the core (the sharded
// queue's consumer parking). Like pause it never blocks, never yields and
// never loads shared state, so a parked consumer takes its cache-line
// traffic off the interconnect entirely.
func Pause(n int) {
	if n > ParkSpinMax {
		n = ParkSpinMax
	}
	s := uint64(0)
	i := 0
	//wfqlint:bounded(PARK, n is clamped to ParkSpinMax on entry and i advances every iteration)
	for i < n {
		s += uint64(i)
		i++
	}
	if s == ^uint64(0) {
		pauseSink = s
	}
}
