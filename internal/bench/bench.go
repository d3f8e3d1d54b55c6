// Package bench is the evaluation harness reproducing the paper's §5
// methodology:
//
//   - the two workloads of §5.1 (enqueue–dequeue pairs, 50% enqueues) with
//     10⁷ operations partitioned evenly among threads;
//   - 50–100 ns of random "work" between operations, excluded from the
//     reported throughput, to avoid artificial long-run scenarios;
//   - a compact software-to-hardware thread mapping with every worker
//     pinned to a hardware thread;
//   - the statistically rigorous methodology of Georges et al.: per
//     invocation (trial), up to 20 iterations until the COV of the last 5
//     falls below 0.02 (else the lowest-COV window), then a 95% confidence
//     interval over the trial means from the Student t-distribution.
//
// Where the paper runs 10 separate process invocations, a trial here is an
// in-process run against a fresh queue with a forced GC in between; Go has
// no JIT warm-up, so process restart would add nothing.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfqueue/internal/affinity"
	"wfqueue/internal/qiface"
	"wfqueue/internal/stats"
	"wfqueue/internal/workload"
)

// Config describes one benchmark cell (one queue at one thread count under
// one workload).
type Config struct {
	Queue    string        // registry name
	Workload workload.Kind // Pairs, HalfHalf or PairsBatched
	Threads  int
	Ops      int // total operations per iteration (a pair counts as 2)
	// Batch is the number of values per batched operation for the
	// PairsBatched workload and the run length for RunGrouped (0 is
	// normalized to 1; other workloads ignore it). Implementations without
	// a native batch path are driven through qiface.WithBatchFallback.
	Batch     int
	Trials    int  // paper: 10
	Iters     int  // max iterations per trial; paper: 20
	Pin       bool // pin workers to hardware threads (compact order)
	WorkMinNS int  // inter-operation work; paper: 50
	WorkMaxNS int  // paper: 100
	Seed      uint64
}

// DefaultConfig returns the paper's parameters for the given cell.
func DefaultConfig(queue string, k workload.Kind, threads int) Config {
	return Config{
		Queue:     queue,
		Workload:  k,
		Threads:   threads,
		Ops:       workload.DefaultOps,
		Batch:     1,
		Trials:    10,
		Iters:     20,
		Pin:       affinity.Supported(),
		WorkMinNS: 50,
		WorkMaxNS: 100,
		Seed:      0x5EED,
	}
}

// Result is the outcome of running one Config.
type Result struct {
	Config    Config
	TrialMops []float64      // steady-state mean Mops/s per trial (work excluded)
	Interval  stats.Interval // 95% CI over TrialMops
	// WallTrialMops/WallInterval report wall-clock throughput with the
	// inter-operation work INCLUDED. The paper reports work-excluded
	// numbers; on hosts where the work dominates the wall time (few
	// hardware threads, fast operations) the subtraction amplifies
	// calibration noise, and the wall-clock series is the stabler shape
	// signal.
	WallTrialMops []float64
	WallInterval  stats.Interval
	SteadyOK      int    // trials that reached the COV threshold
	Enqueues      uint64 // operations executed in the last trial
	Dequeues      uint64
	EmptyDeqs     uint64            // dequeues that returned EMPTY (last trial)
	QueueStats    map[string]uint64 // implementation counters, if exposed

	// Memory-path metrics. AllocsPerOp and BytesPerOp come from one extra,
	// untimed memory trial after the timed ones: warm-up iterations, then
	// one iteration of at most memTrialOps operations in an allocation
	// window (allocwindow.go) that counts only the allocations made inside
	// the workers' operation loop. Warm-up allocations (segment growth,
	// adapter arenas, scratch buffers) land in the warm-up, so an
	// allocation-free hot path reads exactly 0. The window samples every
	// allocation, which would slow allocating queues in a timed trial.
	// GCPauseNS and GCCycles are runtime.MemStats totals of the last timed
	// trial.
	AllocsPerOp float64
	BytesPerOp  float64
	GCPauseNS   uint64
	GCCycles    uint32
}

// Mops returns the mean steady-state throughput in million operations per
// second.
func (r Result) Mops() float64 { return r.Interval.Mean }

func (r Result) String() string {
	return fmt.Sprintf("%s %s T=%d: %.2f ±%.2f Mops/s",
		r.Config.Queue, r.Config.Workload, r.Config.Threads,
		r.Interval.Mean, r.Interval.Half())
}

// Run executes the configured benchmark cell.
func Run(cfg Config) (Result, error) {
	if cfg.Threads < 1 || cfg.Ops < cfg.Threads {
		return Result{}, fmt.Errorf("bench: bad config: %+v", cfg)
	}
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	factory, err := qiface.Lookup(cfg.Queue)
	if err != nil {
		return Result{}, err
	}
	if cfg.Workload == workload.Churn && !factory.ChurnSafe {
		return Result{}, fmt.Errorf("bench: workload %s needs Register/Release churn (qiface.Factory.ChurnSafe); %s does not declare it", cfg.Workload, cfg.Queue)
	}
	if cfg.Workload == workload.StalledConsumer {
		return Result{}, fmt.Errorf("bench: workload %s is phase-asymmetric; drive it with bench.RunStall", cfg.Workload)
	}
	workload.Calibrate()

	res := Result{Config: cfg}
	order := affinity.CompactOrder()
	for trial := 0; trial < cfg.Trials; trial++ {
		mops, wallMops, last, err := runTrial(cfg, factory, order, cfg.Seed+uint64(trial)*1_000_003, false)
		if err != nil {
			return Result{}, err
		}
		mean, _, reached := stats.SteadyState(mops)
		if reached {
			res.SteadyOK++
		}
		res.TrialMops = append(res.TrialMops, mean)
		wallMean, _, _ := stats.SteadyState(wallMops)
		res.WallTrialMops = append(res.WallTrialMops, wallMean)
		res.Enqueues = last.enqs
		res.Dequeues = last.deqs
		res.EmptyDeqs = last.empties
		res.QueueStats = last.queueStats
		res.GCPauseNS = last.gcPauseNS
		res.GCCycles = last.gcCycles
		runtime.GC() // isolate trials, mirroring fresh process invocations
	}

	memCfg := cfg
	memCfg.Iters = memTrialIters
	memCfg.Ops = max(min(cfg.Ops, memTrialOps), cfg.Threads)
	_, _, mem, err := runTrial(memCfg, factory, order, cfg.Seed, true)
	if err != nil {
		return Result{}, err
	}
	res.AllocsPerOp = float64(mem.allocs) / float64(memCfg.Ops)
	res.BytesPerOp = float64(mem.bytes) / float64(memCfg.Ops)
	runtime.GC()

	res.Interval = interval(res.TrialMops)
	res.WallInterval = interval(res.WallTrialMops)
	return res, nil
}

func interval(xs []float64) stats.Interval {
	if len(xs) >= 2 {
		if iv, err := stats.ConfidenceInterval(xs, 0.95); err == nil {
			return iv
		}
	}
	return stats.Interval{Mean: xs[0], Lo: xs[0], Hi: xs[0], Level: 0.95, N: len(xs)}
}

// trialTotals carries per-trial op accounting out of runTrial.
type trialTotals struct {
	enqs, deqs, empties uint64
	queueStats          map[string]uint64

	// Heap accounting: allocations in the workers' loop during the last
	// iteration (memory trial only), and GC work after the first.
	allocs    uint64 // heap allocations
	bytes     uint64 // heap bytes those allocations took
	gcPauseNS uint64 // stop-the-world pause total (PauseTotalNs delta)
	gcCycles  uint32 // completed GC cycles (NumGC delta)
}

// workerCtl is one worker's accounting, shared with the trial driver.
type workerCtl struct {
	// workNS accumulates the intended inter-op work time this iteration.
	workNS int64
	enqs   uint64
	deqs   uint64
	empty  uint64
}

// Run's memory trial: memTrialIters iterations of at most memTrialOps
// operations, all but the last warm-up. The ops cap matters because the
// allocation window samples every allocation, so a queue that allocates per
// operation runs several times slower inside it. The warm-up matters at
// T ≥ 2: a preempted handle holds back reclamation, so a recycling queue
// grows its segment supply to the lags it has seen; after one warm-up
// iteration wf-10-recycle at T=2 still took a fresh segment in ~10% of
// 20,000-op windows, after four in ~0.7%.
const (
	memTrialOps   = 1 << 17
	memTrialIters = 5
)

// runTrial runs one trial on a fresh queue. With countAllocs it counts the
// workers' heap allocations in the last iteration (the memory trial).
func runTrial(cfg Config, factory qiface.Factory, order []int, seed uint64, countAllocs bool) (excl, wall []float64, totals trialTotals, err error) {
	q, err := factory.New(cfg.Threads)
	if err != nil {
		return nil, nil, trialTotals{}, err
	}
	plans := workload.Split(cfg.Workload, cfg.Ops, cfg.Threads, seed)

	ctls := make([]*workerCtl, cfg.Threads)
	iterStart := make([]chan struct{}, cfg.Iters)
	for i := range iterStart {
		iterStart[i] = make(chan struct{})
	}
	iterDone := make([]sync.WaitGroup, cfg.Iters)
	for it := 0; it < cfg.Iters; it++ {
		iterDone[it].Add(cfg.Threads)
	}
	var stop atomic.Bool // set when steady state ends the trial early

	regErr := make(chan error, cfg.Threads)
	ready := make(chan struct{}, cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		ctls[w] = &workerCtl{}
		go func(w int) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if cfg.Pin {
				if err := affinity.PinCompact(order, w); err != nil {
					regErr <- err
					return
				}
			}
			var ops qiface.Ops
			if cfg.Workload != workload.Churn {
				o, err := q.Register()
				if err != nil {
					regErr <- err
					return
				}
				// Guarantee batch closures even for adapters that predate
				// them, so PairsBatched runs on every registered
				// implementation; a no-op Flush likewise lets RunGrouped
				// drive buffering and non-buffering queues identically.
				ops = qiface.WithFlushFallback(qiface.WithBatchFallback(o))
			}
			// Churn workers register inside the iteration — holding a base
			// registration would consume the very capacity the cycles churn.
			regErr <- nil
			ready <- struct{}{}
			rng := workload.NewRNG(plans[w].Seed)
			for it := 0; it < cfg.Iters; it++ {
				<-iterStart[it]
				if !stop.Load() {
					runWorkerIteration(cfg, plans[w], &rng, q, ops, ctls[w])
				}
				iterDone[it].Done()
			}
		}(w)
	}
	for w := 0; w < cfg.Threads; w++ {
		if err := <-regErr; err != nil {
			return nil, nil, trialTotals{}, err
		}
	}
	for w := 0; w < cfg.Threads; w++ {
		<-ready
	}

	// GC baseline: workers are registered and parked on the first
	// iteration barrier. The first iteration is memory warm-up when more
	// follow (the baseline is rebased after it): a fresh queue faults in
	// one-time state on its first traversal — segment chains, adapter arena
	// backing. The memory trial's allocation window covers the last
	// iteration; it keys on runWorkerIteration, so only the workers'
	// operations count, not this driver or the runtime.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var win *allocWindow

	mops := make([]float64, 0, cfg.Iters)
	wallMops := make([]float64, 0, cfg.Iters)
	for it := 0; it < cfg.Iters; it++ {
		for _, c := range ctls {
			atomic.StoreInt64(&c.workNS, 0)
		}
		begin := time.Now()
		close(iterStart[it])
		iterDone[it].Wait()
		wallNS := time.Since(begin).Nanoseconds()

		var workNS int64
		for _, c := range ctls {
			workNS += atomic.LoadInt64(&c.workNS)
		}
		// The random inter-op work executes in parallel across threads;
		// subtract its per-thread average from the wall time, as the
		// paper excludes it from reported numbers.
		effective := wallNS - workNS/int64(cfg.Threads)
		if effective < 1 {
			effective = 1
		}
		mops = append(mops, float64(cfg.Ops)/float64(effective)*1e3)
		wallMops = append(wallMops, float64(cfg.Ops)/float64(wallNS)*1e3)

		if it == 0 && cfg.Iters > 1 {
			runtime.ReadMemStats(&m0)
		}
		if countAllocs && it == cfg.Iters-2 {
			win = openAllocWindow(workerFrame)
		}

		// Early exit once steady state is reached, like the paper's "at
		// most 20 iterations". The memory trial runs all its iterations.
		if _, _, ok := stats.SteadyState(mops); ok && it >= stats.SteadyWindow-1 && !countAllocs {
			// Steady state reached: release the remaining iteration
			// barriers as no-ops so the workers drain and exit.
			stop.Store(true)
			for rest := it + 1; rest < cfg.Iters; rest++ {
				close(iterStart[rest])
			}
			for rest := it + 1; rest < cfg.Iters; rest++ {
				iterDone[rest].Wait()
			}
			break
		}
	}

	if win != nil {
		totals.allocs, totals.bytes = win.close()
	}
	runtime.ReadMemStats(&m1)
	totals.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	totals.gcCycles = m1.NumGC - m0.NumGC

	for _, c := range ctls {
		totals.enqs += atomic.LoadUint64(&c.enqs)
		totals.deqs += atomic.LoadUint64(&c.deqs)
		totals.empties += atomic.LoadUint64(&c.empty)
	}
	if sp, ok := q.(qiface.StatsProvider); ok {
		totals.queueStats = sp.Stats()
	}
	return mops, wallMops, totals, nil
}

var workerFrame = funcName(runWorkerIteration)

// runWorkerIteration executes one worker's share of one iteration. q is only
// used by the Churn workload, whose cycles register and release their own
// handles; every other workload drives the pre-registered ops.
func runWorkerIteration(cfg Config, plan workload.Plan, rng *workload.RNG, q qiface.Queue, ops qiface.Ops, ctl *workerCtl) {
	var workNS int64
	var enqs, deqs, empty uint64
	switch cfg.Workload {
	case workload.Pairs:
		pairs := plan.Ops / 2
		for i := 0; i < pairs; i++ {
			ops.Enqueue(uint64(i) + 1)
			enqs++
			workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
			if _, ok := ops.Dequeue(); !ok {
				empty++
			}
			deqs++
			workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
		}
	case workload.HalfHalf:
		for i := 0; i < plan.Ops; i++ {
			if rng.Bool() {
				ops.Enqueue(uint64(i) + 1)
				enqs++
			} else {
				if _, ok := ops.Dequeue(); !ok {
					empty++
				}
				deqs++
			}
			workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
		}
	case workload.PairsBatched:
		// Like Pairs, but each round moves a whole batch: one EnqueueBatch
		// of B values, the inter-op work, one DequeueBatch of B. A round
		// counts as 2B operations, so throughput numbers remain in
		// operations (values moved), comparable with Pairs.
		b := cfg.Batch
		if b < 1 {
			b = 1
		}
		vs := make([]uint64, b)
		dst := make([]uint64, b)
		rounds := plan.Ops / (2 * b)
		for i := 0; i < rounds; i++ {
			for j := range vs {
				vs[j] = uint64(i*b+j) + 1
			}
			ops.EnqueueBatch(vs)
			enqs += uint64(b)
			workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
			got := ops.DequeueBatch(dst)
			empty += uint64(b - got)
			deqs += uint64(b)
			workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
		}
	case workload.RunGrouped:
		// A run of B scalar enqueues, a flush (the producer-goes-idle
		// handoff), then a run of B scalar dequeues. One value per call —
		// the shape operation coalescing amortizes — without the lockstep
		// of Pairs that degenerates any window to 1.
		b := cfg.Batch
		if b < 1 {
			b = 1
		}
		rounds := plan.Ops / (2 * b)
		for i := 0; i < rounds; i++ {
			for j := 0; j < b; j++ {
				ops.Enqueue(uint64(i*b+j) + 1)
				enqs++
				workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
			}
			ops.Flush()
			for j := 0; j < b; j++ {
				if _, ok := ops.Dequeue(); !ok {
					empty++
				}
				deqs++
				workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
			}
		}
	case workload.Churn:
		// Register → ChurnPairs pairs → Release, repeated. The lifecycle cost
		// sits inside the measured cycle, which is the point: this is the
		// workload where a mutex-guarded Register serializes all threads and
		// the lock-free pool does not.
		cycles := plan.Ops / (2 * workload.ChurnPairs)
		if cycles < 1 {
			cycles = 1
		}
		for c := 0; c < cycles; c++ {
			cops, err := q.Register()
			if err != nil {
				// Capacity equals the worker count and each worker holds at
				// most one handle, so a denial here is a lifecycle bug (a
				// Release that failed to return its slot), not contention.
				panic(fmt.Sprintf("bench: churn Register cycle %d: %v", c, err))
			}
			if cops.Release == nil {
				panic("bench: churn workload on a queue whose Ops lack Release")
			}
			for i := 0; i < workload.ChurnPairs; i++ {
				cops.Enqueue(uint64(i) + 1)
				enqs++
				workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
				if _, ok := cops.Dequeue(); !ok {
					empty++
				}
				deqs++
				workNS += int64(workload.Work(rng, cfg.WorkMinNS, cfg.WorkMaxNS))
			}
			cops.Release()
		}
	}
	atomic.AddInt64(&ctl.workNS, workNS)
	atomic.AddUint64(&ctl.enqs, enqs)
	atomic.AddUint64(&ctl.deqs, deqs)
	atomic.AddUint64(&ctl.empty, empty)
}

// ThreadSweep returns the thread counts for a Figure 2 style sweep on this
// host: powers of two up to NumCPU, NumCPU itself, and (when oversubscribe
// is true) 2×NumCPU, mirroring the paper's per-platform x axes.
func ThreadSweep(oversubscribe bool) []int {
	n := runtime.NumCPU()
	var ts []int
	for t := 1; t < n; t *= 2 {
		ts = append(ts, t)
	}
	ts = append(ts, n)
	if oversubscribe {
		ts = append(ts, 2*n)
	}
	return ts
}
