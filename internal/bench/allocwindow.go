package bench

import (
	"reflect"
	"runtime"
	"sync"
)

// Allocation windows for the exact-zero gates. A runtime.MemStats delta
// counts every allocation in the process, the runtime's own included: after
// the forced GC that opens a window, the background scavenger re-arms its
// timer and can grow the timer heap (bgscavenge → timer.reset →
// timers.addHeap), and a GC mark worker can take a sudog. Each puts an
// allocation into a window whose measured code allocated nothing.
//
// A window therefore counts from the heap profile instead. While it is
// open every allocation is sampled (MemProfileRate 1), and only samples
// whose call stack passes through a named function — the measured loop —
// are counted, so the runtime's and other goroutines' allocations stay out.
// A record keeps the innermost 32 frames of its stack; every measured loop
// here sits well within that of the allocations it could make.
// Tiny allocations (pointer-free, under 16 bytes) are packed into 16-byte
// blocks and only a block's first allocation is sampled; opening the window
// flushes every P's allocation cache, which retires its block, so the
// measured code's first tiny allocation starts a new block and is counted
// (unless another goroutine started a block on that P in between). The
// count can thus undercount tiny allocations but not miss all of them; with
// one injected 8-byte allocation per window every gate failed in 20 of 20
// fresh processes.

// allocWindowMu serializes windows: the sampling rate is process-wide.
var allocWindowMu sync.Mutex

// allocWindow is an open measurement over the allocations made on stacks
// through fn.
type allocWindow struct {
	fn             string
	rate           int
	objects, bytes uint64
}

// openAllocWindow starts counting the allocations made on stacks through
// fn (a function name as runtime.Frame reports it). The caller must close
// the window.
func openAllocWindow(fn string) *allocWindow {
	allocWindowMu.Lock()
	w := &allocWindow{fn: fn, rate: runtime.MemProfileRate}
	runtime.MemProfileRate = 1
	runtime.GC() // publish every earlier allocation to the profile
	w.objects, w.bytes = profiledAllocs(fn)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // flush the allocation caches (see above)
	return w
}

// close ends the window and returns the allocations made on stacks through
// its function since it opened.
func (w *allocWindow) close() (objects, bytes uint64) {
	runtime.GC() // publish the window's allocations
	o, b := profiledAllocs(w.fn)
	runtime.MemProfileRate = w.rate
	allocWindowMu.Unlock()
	return o - w.objects, b - w.bytes
}

// profiledAllocs sums the heap profile's cumulative allocations over the
// records whose stack passes through fn.
func profiledAllocs(fn string) (objects, bytes uint64) {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == fn {
				objects += uint64(recs[i].AllocObjects)
				bytes += uint64(recs[i].AllocBytes)
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// funcName is the name runtime.Frame reports for f.
func funcName(f any) string {
	return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
}

// measured runs loop as the frame an allocation window keys on. It must
// not be inlined, or the frame would vanish from the stacks.
//
//go:noinline
func measured(loop func()) { loop() }

var measuredFrame = funcName(measured)

// AllocsIn returns the heap allocations loop makes, and only those: the
// runtime's own and other goroutines' allocations are not counted.
func AllocsIn(loop func()) (objects, bytes uint64) {
	w := openAllocWindow(measuredFrame)
	measured(loop)
	return w.close()
}
