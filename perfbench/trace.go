package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"wfqueue/internal/pad"
)

// Tracing, from the benchmark's side of the API: in a traced pass every
// Enqueue and Dequeue call is timed, and the spans of every traceEvery-th
// value are kept in memory. A value's enqueue span and dequeue span share
// its identifier (producer:seq); both are children of the span of the
// worker loop that made the call. Spans stay off the Go heap until the run
// writes them out, so keeping them changes nothing the passes measure.

type spanKind uint8

const (
	spanEnqueue spanKind = iota
	spanDequeue
)

func (k spanKind) String() string {
	if k == spanEnqueue {
		return "wfqueue.enqueue"
	}
	return "wfqueue.dequeue"
}

type span struct {
	value      uint64 // encode(producer, seq)
	start, end int64
	kind       spanKind
	worker     uint8
}

// tracer is one worker's trace buffer for one pass, padded like worker.
type tracer struct {
	_            [2]pad.CacheLinePad
	every        uint64
	enqNs, deqNs int64
	enqN, deqN   uint64
	spans        []span
	_            [2]pad.CacheLinePad
}

func (t *tracer) enq(w int, seq uint64, accepted bool, t0, t1 int64) {
	t.enqNs += t1 - t0
	t.enqN++
	if accepted && seq%t.every == 0 {
		t.keep(span{value: encode(w, seq), start: t0, end: t1, kind: spanEnqueue, worker: uint8(w)})
	}
}

func (t *tracer) deq(w, p int, seq uint64, got bool, t2, t3 int64) {
	t.deqNs += t3 - t2
	t.deqN++
	if got && seq%t.every == 0 {
		t.keep(span{value: encode(p, seq), start: t2, end: t3, kind: spanDequeue, worker: uint8(w)})
	}
}

func (t *tracer) keep(s span) {
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	}
}

// traceStats summarizes one traced pass.
type traceStats struct {
	enqueueNs, dequeueNs float64 // mean span durations
	sojournP50Ns         float64 // median enqueue end to dequeue start
}

// workerSpan is the parent span of one worker's timed loop.
type workerSpan struct {
	round, id  int
	start, end int64
}

// traceLog holds a run's spans, pass after pass, until write.
type traceLog struct {
	mem     offHeap
	every   uint64
	round   int // current round, stamped on the spans collect records
	rounds  []int
	parts   [][]span // off-heap, one per worker per traced pass
	workers []workerSpan
}

func (l *traceLog) tracer(maxSeq uint64) *tracer {
	// A worker keeps its own sampled enqueues and the sampled dequeues of
	// values from every producer.
	return &tracer{every: l.every, spans: l.mem.spans(int(nProducers*maxSeq/l.every + 16))}
}

// collect keeps the pass's spans and summarizes them.
func (l *traceLog) collect(ws []*worker) traceStats {
	var enqNs, deqNs int64
	var enqN, deqN uint64
	enqEnd := make(map[uint64]int64)
	for _, w := range ws {
		t := w.tr
		enqNs, deqNs, enqN, deqN = enqNs+t.enqNs, deqNs+t.deqNs, enqN+t.enqN, deqN+t.deqN
		for _, s := range t.spans {
			if s.kind == spanEnqueue {
				enqEnd[s.value] = s.end
			}
		}
		l.parts = append(l.parts, t.spans)
		l.rounds = append(l.rounds, l.round)
		l.workers = append(l.workers, workerSpan{round: l.round, id: w.id, start: w.startNs, end: w.endNs})
	}
	var waits []int64
	for _, w := range ws {
		for _, s := range w.tr.spans {
			if e, ok := enqEnd[s.value]; ok && s.kind == spanDequeue {
				waits = append(waits, s.start-e)
			}
		}
	}
	st := traceStats{
		enqueueNs: float64(enqNs) / float64(max(enqN, 1)),
		dequeueNs: float64(deqNs) / float64(max(deqN, 1)),
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		st.sojournP50Ns = float64(waits[len(waits)/2])
	}
	return st
}

func (l *traceLog) spanCount() int {
	n := 0
	for _, p := range l.parts {
		n += len(p)
	}
	return n
}

// write stores the spans as CSV: name, id, parent, start_ns, end_ns. Ids
// and parents carry the round: r<round>/<producer>:<seq> for a value,
// r<round>/w<worker> for a worker loop.
func (l *traceLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns")
	for _, ws := range l.workers {
		fmt.Fprintf(w, "worker,r%d/w%d,pass,%d,%d\n", ws.round, ws.id, ws.start, ws.end)
	}
	for i, part := range l.parts {
		r := l.rounds[i]
		for _, s := range part {
			p, seq := decode(s.value)
			fmt.Fprintf(w, "%s,r%d/%d:%d,r%d/w%d,%d,%d\n", s.kind, r, p, seq, r, s.worker, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
