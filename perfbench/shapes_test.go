package main

import (
	"flag"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfqueue"
)

// The call shapes README.md lists as left out of the benchmark, each run
// through the exact output check. Skipped unless -shapes=N gives the runs
// per shape:
//
//	cd perfbench && go test -run TestDeferredShapes -shapes=20 -v .
var shapeRuns = flag.Int("shapes", 0, "runs per deferred call shape (0 skips)")

const shapeValues = 1 << 20

// shape runs one call shape on q's three handles, recording into logs[0]
// (the consumer; for coalesced pairs, worker 0) and logs[1] (worker 1), and
// returns how many values each producer offered.
type shape func(hs [3]*wfqueue.Handle[uint64], logs []*consumerLog) []uint64

func TestDeferredShapes(t *testing.T) {
	if *shapeRuns == 0 {
		t.Skip("pass -shapes=N to run the deferred call shapes")
	}
	shapes := []struct {
		name string
		opts []wfqueue.Option
		run  shape
	}{
		{"scalar-producer-consumer", nil, scalarProducerConsumer},
		{"batch16", nil, batchProducerConsumer},
		{"pairs-coalesce16", []wfqueue.Option{wfqueue.WithCoalescing(16)}, coalescedPairs},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			bad := 0
			for i := 0; i < *shapeRuns; i++ {
				var mem offHeap
				limits := []uint64{shapeValues, shapeValues}
				logs := []*consumerLog{newConsumerLog(0, limits, mem.words), newConsumerLog(1, limits, mem.words), newConsumerLog(2, limits, mem.words)}
				q := wfqueue.New[uint64](3, sh.opts...)
				var hs [3]*wfqueue.Handle[uint64]
				for j := range hs {
					hs[j] = must(q.Register())
				}
				accepted := sh.run(hs, logs)
				for _, h := range hs[:2] {
					h.Release() // publishes anything still coalesced
				}
				drain(facadeEP{hs[2]}, logs[2])
				hs[2].Release()
				if v := check(accepted, logs); v != nil {
					bad++
					t.Logf("run %d: %v", i, v)
				}
				mem.free()
			}
			if bad > 0 {
				t.Errorf("%d of %d runs delivered a wrong output", bad, *shapeRuns)
			}
		})
	}
}

// untilDrained runs consume until the producer is done and the queue reads
// empty after that.
func untilDrained(done *atomic.Bool, consume func() bool) {
	for {
		finished := done.Load()
		if !consume() && finished {
			return
		}
	}
}

// scalarProducerConsumer: one goroutine calls Enqueue, another Dequeue,
// with at most 1,024 values in flight.
func scalarProducerConsumer(hs [3]*wfqueue.Handle[uint64], logs []*consumerLog) []uint64 {
	var consumed atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint64(0); seq < shapeValues; seq++ {
			for seq-consumed.Load() >= 1024 {
				runtime.Gosched()
			}
			hs[0].Enqueue(encode(0, seq))
		}
		done.Store(true)
	}()
	go func() {
		defer wg.Done()
		untilDrained(&done, func() bool {
			v, ok := hs[1].Dequeue()
			if ok {
				logs[0].record(decode(v))
				consumed.Add(1)
			}
			return ok
		})
	}()
	wg.Wait()
	return []uint64{shapeValues, 0}
}

// batchProducerConsumer: EnqueueBatch of 16 against DequeueBatch(16).
func batchProducerConsumer(hs [3]*wfqueue.Handle[uint64], logs []*consumerLog) []uint64 {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		batch := make([]uint64, 16)
		for seq := uint64(0); seq < shapeValues; seq += 16 {
			for i := range batch {
				batch[i] = encode(0, seq+uint64(i))
			}
			hs[0].EnqueueBatch(batch)
		}
		done.Store(true)
	}()
	go func() {
		defer wg.Done()
		dst := make([]uint64, 16)
		untilDrained(&done, func() bool {
			n := hs[1].DequeueBatch(dst)
			for _, v := range dst[:n] {
				logs[0].record(decode(v))
			}
			return n > 0
		})
	}()
	wg.Wait()
	return []uint64{shapeValues, 0}
}

// coalescedPairs: the benchmark's pairs loop, without the work, on a queue
// built WithCoalescing(16).
func coalescedPairs(hs [3]*wfqueue.Handle[uint64], logs []*consumerLog) []uint64 {
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(0); seq < shapeValues; seq++ {
				hs[w].Enqueue(encode(w, seq))
				if v, ok := hs[w].Dequeue(); ok {
					logs[w].record(decode(v))
				}
			}
		}(w)
	}
	wg.Wait()
	return []uint64{shapeValues, shapeValues}
}
