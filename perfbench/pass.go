package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"wfqueue/internal/pad"
	"wfqueue/internal/workload"
)

// The paper's §5.1 pairs loop: enqueue, 50–100 ns of work, dequeue, 50–100
// ns of work, closed, on every worker.
const (
	minWorkNS = 50
	maxWorkNS = 100
	// maxRate bounds the values one producer can offer per second; it
	// sizes the check bitmaps and value-identity ranges. The pairs loop
	// runs near 1.5M pairs per second per worker on a 2-vCPU host.
	maxRate = 8_000_000
)

// passConfig sets up one pass: warm-up, then the timed phase.
type passConfig struct {
	seed          uint64
	warmup, timed time.Duration
	// sampleEvery > 0 times both calls of every sampleEvery-th iteration
	// of the timed phase into the latency histogram.
	sampleEvery uint64
	// trace, when set, times every call of the timed phase and keeps the
	// spans of every trace.every-th value.
	trace *traceLog
	// heapPeak samples the heap while the timed phase runs.
	heapPeak bool
}

// passResult is what one pass measured over its timed phase, plus the
// exact check over everything the pass's queue carried.
type passResult struct {
	ops       uint64  // enqueue and dequeue calls, timed phase
	enqs      uint64  // enqueue calls, timed phase
	refused   uint64  // refused enqueues, timed phase
	attempted uint64  // enqueue and dequeue calls, warm-up and timed phase
	failed    uint64  // refused enqueues, warm-up and timed phase
	wallNs    int64   // timed phase, first start to last end
	nsPerIter float64 // mean over workers of timed-phase ns per iteration
	hist      *histogram
	counters  map[string]uint64 // layer counters, timed-phase delta
	allocB    uint64
	mallocs   uint64
	gcs       uint64
	gcPauseNs uint64
	heapPeakB uint64
	trace     traceStats
	capped    bool // a producer reached its sequence-number limit
	bad       *violation
}

func (r *passResult) mops() float64 { return float64(r.ops) / float64(r.wallNs) * 1e3 }

// nsPerOp is the time one call costs in this pass beyond the loop's own
// cost, given loop's ns per iteration from the bare loop.
func (r *passResult) nsPerOp(loop float64) float64 { return (r.nsPerIter - loop) / 2 }

// worker is one closed-loop participant. The padding keeps the two
// workers' state, written on every iteration, off each other's cache lines.
type worker struct {
	_       [2]pad.CacheLinePad
	id      int
	ep      endpoint
	rng     workload.RNG
	log     *consumerLog // nil when the target carries no values
	seq     uint64       // next sequence number to offer
	maxSeq  uint64
	n       uint64 // iterations, current phase
	refused uint64 // refused offers, current phase
	startNs int64
	endNs   int64
	hist    *histogram // nil unless sampling latency
	every   uint64
	tr      *tracer // nil unless tracing
	_       [2]pad.CacheLinePad
}

// loop runs pairs iterations until deadline (checked every 64 iterations)
// or until this producer runs out of sequence numbers.
func (w *worker) loop(deadline int64) {
	w.refused = 0
	w.startNs = now()
	var n uint64
	for ; w.seq < w.maxSeq; n++ {
		if n&63 == 0 && now() >= deadline {
			break
		}
		clock := w.tr != nil || (w.hist != nil && n%w.every == 0)
		var t0, t1, t2, t3 int64
		if clock {
			t0 = now()
		}
		accepted := w.ep.enq(w.id, w.seq)
		if clock {
			t1 = now()
		}
		workload.Work(&w.rng, minWorkNS, maxWorkNS)
		if clock {
			t2 = now()
		}
		p, seq, got := w.ep.deq()
		if clock {
			t3 = now()
		}
		workload.Work(&w.rng, minWorkNS, maxWorkNS)

		if w.tr != nil {
			w.tr.enq(w.id, w.seq, accepted, t0, t1)
			w.tr.deq(w.id, p, seq, got, t2, t3)
		} else if clock {
			w.hist.add(t1 - t0)
			w.hist.add(t3 - t2)
		}
		if accepted {
			w.seq++
		} else {
			w.refused++
		}
		if got {
			w.log.record(p, seq)
		}
	}
	w.endNs = now()
	w.n = n
}

// runPass drives t with the pairs loop on nWorkers goroutines: warm-up,
// then the timed phase, then the drainer empties the queue and the exact
// check runs over every value the pass offered, prefill included.
func runPass(t *target, cfg passConfig, prefill uint64) passResult {
	var mem offHeap
	defer mem.free()
	maxSeq := uint64(maxRate * (cfg.warmup + cfg.timed + time.Second).Seconds())
	limits := []uint64{maxSeq, maxSeq, max(prefill, 1)}

	var logs []*consumerLog
	if t.values {
		for c := 0; c < nWorkers+1; c++ {
			logs = append(logs, newConsumerLog(c, limits, mem.words))
		}
	}
	ws := make([]*worker, nWorkers)
	for i := range ws {
		w := &worker{id: i, ep: t.workers[i], rng: workload.NewRNG(workerSeed(cfg.seed, i)), maxSeq: maxSeq}
		if logs != nil {
			w.log = logs[i]
		}
		ws[i] = w
	}

	var res passResult
	phase := func(d time.Duration) {
		var wg sync.WaitGroup
		deadline := now() + int64(d)
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.loop(deadline)
			}(w)
		}
		wg.Wait()
		for _, w := range ws {
			res.attempted += 2 * w.n
			res.failed += w.refused
			res.capped = res.capped || w.seq >= w.maxSeq
		}
	}

	if cfg.warmup > 0 {
		phase(cfg.warmup)
	}

	// Timed phase.
	if cfg.sampleEvery > 0 {
		res.hist = new(histogram)
		for _, w := range ws {
			w.hist, w.every = new(histogram), cfg.sampleEvery
		}
	}
	if cfg.trace != nil {
		for _, w := range ws {
			w.tr = cfg.trace.tracer(maxSeq)
		}
	}
	var before map[string]uint64
	if t.counters != nil {
		before = t.counters()
	}
	var peak heapSampler
	if cfg.heapPeak {
		peak.start()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase(cfg.timed)
	runtime.ReadMemStats(&ms1)
	if cfg.heapPeak {
		res.heapPeakB = peak.stop()
	}
	if t.counters != nil {
		res.counters = delta(t.counters(), before)
	}
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcs = uint64(ms1.NumGC - ms0.NumGC)
	res.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	first, last := ws[0].startNs, ws[0].endNs
	for _, w := range ws {
		first, last = min(first, w.startNs), max(last, w.endNs)
		res.ops += 2 * w.n
		res.enqs += w.n
		res.refused += w.refused
		res.nsPerIter += float64(w.endNs-w.startNs) / float64(max(w.n, 1)) / nWorkers
		if w.hist != nil {
			res.hist.merge(w.hist)
		}
	}
	res.wallNs = last - first
	if cfg.trace != nil {
		res.trace = cfg.trace.collect(ws)
	}

	if t.values {
		accepted := []uint64{ws[0].seq, ws[1].seq, prefill}
		drain(t.drainer, logs[drainerID])
		res.bad = check(accepted, logs)
	}
	return res
}

// drain empties the queue through the drainer after the workers joined.
// The queue is quiescent, so EMPTY is final; two extra attempts make a
// spurious EMPTY show up as values found after it rather than as losses.
func drain(e endpoint, log *consumerLog) {
	for misses := 0; misses < 3; {
		p, seq, ok := e.deq()
		if !ok {
			misses++
			continue
		}
		log.record(p, seq)
	}
}

func delta(after, before map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// workerSeed derives worker i's work-sequence seed from the run seed, so
// every pass of a run replays the same work.
func workerSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// heapSampler records the peak of in-use heap spans (objects plus free
// space in in-use spans, MemStats.HeapInuse) every 10 ms from its own
// goroutine, without stopping the world.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func (s *heapSampler) start() {
	s.stopc, s.done = make(chan struct{}), make(chan uint64)
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
}

func (s *heapSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}
