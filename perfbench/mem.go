package main

import (
	"math/bits"
	"syscall"
	"time"
	"unsafe"
)

// offHeap hands out zeroed memory mapped outside the Go heap. The
// benchmark's own bookkeeping (check bitmaps, value identities for the
// direct passes, trace buffers) lives there so it adds nothing to
// TotalAlloc and does not change how often the collector runs under the
// queue's own allocations. Pages are reserved lazily: only what is touched
// becomes resident.
type offHeap struct{ maps [][]byte }

func (o *offHeap) bytes(n int) []byte {
	if n <= 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic("perfbench: mmap: " + err.Error())
	}
	o.maps = append(o.maps, b)
	return b
}

func (o *offHeap) words(n int) []uint64 {
	b := o.bytes(n * 8)
	if b == nil {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

func (o *offHeap) spans(n int) []span {
	b := o.bytes(n * int(unsafe.Sizeof(span{})))
	if b == nil {
		return nil
	}
	return unsafe.Slice((*span)(unsafe.Pointer(&b[0])), n)[:0]
}

// free unmaps everything. Queues may still hold pointers into the value
// identity ranges; the collector ignores pointers outside its heap.
func (o *offHeap) free() {
	for _, b := range o.maps {
		_ = syscall.Munmap(b) // only fails for a bad range, which mmap gave us
	}
	o.maps = nil
}

// epoch anchors now, which reads the monotonic clock in nanoseconds.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// histogram counts durations in nanoseconds: exactly below linearMax, and
// in 256 sub-buckets per power of two above it (0.4% resolution).
type histogram struct {
	counts [linearMax + (64-linearBits)*256]uint64
	n      uint64
}

const (
	linearBits = 12
	linearMax  = 1 << linearBits
)

func (h *histogram) add(d int64) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	i := int(v)
	if v >= linearMax {
		msb := bits.Len64(v) - 1
		i = linearMax + (msb-linearBits)*256 + int(v>>(msb-8)&255)
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (nearest rank): the exact value in the
// linear range, the bucket midpoint above it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen < rank {
			continue
		}
		if i < linearMax {
			return float64(i)
		}
		j := i - linearMax
		shift := j/256 + linearBits - 8
		lo := uint64(256+j%256) << shift
		return float64(lo) + float64(uint64(1)<<shift)/2
	}
	return 0
}
