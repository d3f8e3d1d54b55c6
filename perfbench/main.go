// Command perfbench is the repository's benchmark: the paper's
// enqueue–dequeue pairs loop (§5.1) on two worker goroutines, driven
// through the public wfqueue API, with every dequeued value checked. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"wfqueue/internal/workload"
)

// A workload is the pairs loop on one queue shape.
type workloadSpec struct {
	name    string
	bounded bool   // BoundedQueue (SCQ) instead of Queue (core)
	prefill uint64 // values enqueued during set-up
}

var workloads = []workloadSpec{
	{name: "pairs"},
	{name: "pairs-deep", prefill: 65536},
	{name: "bounded-pairs", bounded: true},
}

const (
	// rounds splits an untraced run into fresh queues; setup_s and
	// throughput_mops are medians over rounds.
	rounds = 20
	// setupsPerRound is how many times each round sets up.
	setupsPerRound = 3
	// sampleEvery is the untraced run's latency sampling: both calls of
	// every 16th iteration.
	sampleEvery = 16
	// traceRounds splits a traced run; each round runs every pass.
	traceRounds = 4
	// traceEvery keeps the spans of every 256th value in a traced run.
	traceEvery = 256
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "pairs", "workload: pairs, pairs-deep or bounded-pairs")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds the run measures")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (CSV)")
	flag.Parse()

	var wl *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(nWorkers)
	workload.Calibrate()

	var res result
	var info map[string]any
	if *trace == 1 {
		res, info = tracedRun(wl, *seed, time.Duration(*seconds)*time.Second, *traceOut)
	} else {
		res, info = untracedRun(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	info["env"] = environment(*seed)
	line, err := json.Marshal(info)
	if err == nil {
		fmt.Printf("info %s\n", line)
		line, err = json.Marshal(res)
	}
	if err != nil { // a metric came out NaN or infinite
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// build sets up the workload's queue: construction, Register of every
// handle, and the prefill.
func (wl *workloadSpec) build() *target {
	var t *target
	if wl.bounded {
		t = newBounded()
	} else {
		t = newFacade()
	}
	t.prefill(wl.prefill)
	return t
}

// buildDirect sets up the layer below the façade the same way, fed
// never-reused pointers from id.
func (wl *workloadSpec) buildDirect(id *ids) *target {
	var t *target
	if wl.bounded {
		t = newSCQ(id)
	} else {
		t = newCore(id)
	}
	t.prefill(wl.prefill)
	return t
}

// untracedRun measures the end-to-end metrics over rounds. Each round sets
// up a fresh queue setupsPerRound times (construction, Register of every
// handle, prefill) and keeps the last, warms it up untimed, then runs its
// share of the timed phase. setup_s and throughput_mops are medians over
// set-ups and rounds, which keeps a few seconds of host noise from moving
// them; the latency samples of all rounds are pooled.
func untracedRun(wl *workloadSpec, seed uint64, d time.Duration) (result, map[string]any) {
	res := result{Correct: true}
	info := map[string]any{"workload": wl.name}
	var setups, mops []float64
	var perRound []map[string]any
	hist := new(histogram)
	var ops, allocB, refused, enqs uint64
	for i := uint64(0); i < rounds; i++ {
		var t *target
		for j := 0; j < setupsPerRound; j++ {
			if t != nil {
				t.release()
			}
			runtime.GC()
			t0 := time.Now()
			t = wl.build()
			setups = append(setups, time.Since(t0).Seconds())
		}
		cfg := passConfig{seed: seed*rounds + i, warmup: d / 10 / rounds, timed: d / rounds, sampleEvery: sampleEvery}
		r := runPass(t, cfg, wl.prefill)
		t.release()

		res.Correct = res.Correct && r.bad == nil && !r.capped
		res.Attempted += r.attempted
		res.Failed += r.failed
		addVerdict(info, r)
		mops = append(mops, r.mops())
		hist.merge(r.hist)
		ops += r.ops
		allocB += r.allocB
		refused += r.refused
		enqs += r.enqs
		// Attribution: on pairs, a slow round shows as more spin
		// fallbacks and fast-path CAS failures.
		perRound = append(perRound, map[string]any{
			"mops":           r.mops(),
			"spin_fallbacks": r.counters["core.spin_fallbacks"],
			"fast_cas_fails": r.counters["core.fast_cas_fails"],
		})
	}
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"throughput_mops": {median(mops), "Mops/s"},
		"op_p50_ns":       {hist.quantile(0.50), "ns"},
		"op_p99_ns":       {hist.quantile(0.99), "ns"},
	}
	info["ops"] = ops
	info["latency_samples"] = hist.n
	info["alloc_bytes_per_op"] = float64(allocB) / float64(ops)
	info["refused_share"] = ratio(refused, enqs)
	info["rounds"] = perRound
	return res, info
}

// tracedRun measures the per-layer metrics. Each of traceRounds rounds
// runs five passes of the same traffic from the same seed: the façade
// untraced and traced, the layer below it directly (internal/core or
// internal/scq), the FAA floor (internal/faabench) and the bare loop. Times
// are medians over rounds of each round's values, so a layer is only ever
// compared with passes run within seconds of it; counters are summed over
// the untraced façade passes.
func tracedRun(wl *workloadSpec, seed uint64, d time.Duration, traceOut string) (result, map[string]any) {
	res := result{Correct: true}
	info := map[string]any{"workload": wl.name}
	var facadeNs, belowNs, faaNs, selfNs, overFAA, overhead, enqNs, deqNs, sojourn, loopNs []float64
	var f passResult // untraced façade passes, summed
	f.counters = map[string]uint64{}
	var refused, enqs uint64
	spans := &traceLog{every: traceEvery}
	defer spans.mem.free()
	for i := uint64(0); i < traceRounds; i++ {
		spans.round = int(i)
		cfg := passConfig{seed: seed*traceRounds + i, warmup: 100 * time.Millisecond, timed: d / 5 / traceRounds}
		pass := func(t *target, cfg passConfig) passResult {
			defer t.release()
			runtime.GC()
			r := runPass(t, cfg, wl.prefill)
			res.Correct = res.Correct && r.bad == nil && !r.capped
			res.Attempted += r.attempted
			res.Failed += r.failed
			addVerdict(info, r)
			return r
		}
		fcfg := cfg
		fcfg.heapPeak = true
		facade := pass(wl.build(), fcfg)
		tcfg := cfg
		tcfg.trace = spans
		traced := pass(wl.build(), tcfg)
		var mem offHeap
		limit := uint64(maxRate * (cfg.warmup + cfg.timed + time.Second).Seconds())
		below := pass(wl.buildDirect(newIDs(&mem, []uint64{limit, limit, max(wl.prefill, 1)})), cfg)
		mem.free()
		faa := pass(newFAA(), cfg)
		loop := pass(newLoop(), cfg).nsPerIter

		fNs, bNs, aNs := facade.nsPerOp(loop), below.nsPerOp(loop), faa.nsPerOp(loop)
		facadeNs = append(facadeNs, fNs)
		belowNs = append(belowNs, bNs)
		faaNs = append(faaNs, aNs)
		selfNs = append(selfNs, fNs-bNs)
		overFAA = append(overFAA, bNs/aNs)
		overhead = append(overhead, 1-traced.mops()/facade.mops())
		enqNs = append(enqNs, traced.trace.enqueueNs)
		deqNs = append(deqNs, traced.trace.dequeueNs)
		sojourn = append(sojourn, traced.trace.sojournP50Ns)
		loopNs = append(loopNs, loop)

		f.ops += facade.ops
		for k, v := range facade.counters {
			f.counters[k] += v
		}
		f.allocB += facade.allocB
		f.mallocs += facade.mallocs
		f.gcs += facade.gcs
		f.gcPauseNs += facade.gcPauseNs
		f.heapPeakB = max(f.heapPeakB, facade.heapPeakB)
		refused += facade.refused + traced.refused
		enqs += facade.enqs + traced.enqs
	}

	ops := float64(f.ops)
	perOp := func(n uint64) float64 { return float64(n) / ops }
	perMop := func(n uint64) float64 { return float64(n) * 1e6 / ops }
	c := f.counters
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("wfqueue.enqueue_ns", "ns", median(enqNs))
	set("wfqueue.dequeue_ns", "ns", median(deqNs))
	set("wfqueue.ns_per_op", "ns", median(facadeNs))
	set("wfqueue.self_ns_per_op", "ns", median(selfNs))
	set("wfqueue.sojourn_p50_ns", "ns", median(sojourn))
	set("wfqueue.refused_share", "ratio", ratio(refused, enqs))
	set("faa.ns_per_op", "ns", median(faaNs))

	// A layer the workload does not run reads 0.
	var coreNs, scqNs, coreOverFAA float64
	if wl.bounded {
		scqNs = median(belowNs)
	} else {
		coreNs, coreOverFAA = median(belowNs), median(overFAA)
	}
	set("core.ns_per_op", "ns", coreNs)
	set("core.over_faa", "ratio", coreOverFAA)
	fastDone := c["core.enq_fast"] + c["core.deq_fast"]
	fastTries := fastDone + c["core.fast_cas_fails"] + c["core.deq_empty"]
	slow := c["core.enq_slow"] + c["core.deq_slow"]
	deqs := c["core.deq_fast"] + c["core.deq_slow"] + c["core.deq_empty"]
	set("core.fast_cas_fails_per_mop", "1/Mop", perMop(c["core.fast_cas_fails"]))
	set("core.spin_fallbacks_per_mop", "1/Mop", perMop(c["core.spin_fallbacks"]))
	set("core.slow_share", "ratio", ratio(slow, fastDone+slow))
	set("core.help_per_mop", "1/Mop", perMop(c["core.help_enq"]+c["core.help_deq"]))
	set("core.deq_empty_share", "ratio", ratio(c["core.deq_empty"], deqs))
	set("core.fast_share", "ratio", ratio(fastDone, fastTries))
	set("core.segments_per_mop", "1/Mop", perMop(c["core.segments"]))
	set("core.seg_allocs_per_mop", "1/Mop", perMop(c["core.seg_allocs"]))
	set("core.cleanups_per_mop", "1/Mop", perMop(c["core.cleanups"]))
	set("core.reclaimed_per_mop", "1/Mop", perMop(c["core.reclaimed"]))

	sdeqs := c["scq.deq_fast"] + c["scq.deq_slow"] + c["scq.deq_empty"]
	set("scq.ns_per_op", "ns", scqNs)
	set("scq.deq_slow_share", "ratio", ratio(c["scq.deq_slow"], sdeqs))
	set("scq.help_scans_per_mop", "1/Mop", perMop(c["scq.help_scans"]))
	set("scq.help_donated_per_mop", "1/Mop", perMop(c["scq.help_donated"]))
	set("scq.enq_full", "count", float64(c["scq.enq_full"]))

	set("runtime.alloc_bytes_per_op", "B/op", perOp(f.allocB))
	set("runtime.mallocs_per_op", "1/op", perOp(f.mallocs))
	set("runtime.gc_cycles_per_mop", "1/Mop", perMop(f.gcs))
	set("runtime.gc_pause_ns_per_mop", "ns/Mop", perMop(f.gcPauseNs))
	set("runtime.heap_inuse_peak_bytes", "B", float64(f.heapPeakB))
	set("trace.overhead_share", "ratio", median(overhead))
	res.Metrics = m

	info["loop_ns_per_iter"] = median(loopNs)
	info["spans"] = spans.spanCount()
	if traceOut != "" {
		if err := spans.write(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		info["trace_file"] = traceOut
	}
	return res, info
}

// addVerdict records a pass's first violation, keeping the earliest.
func addVerdict(info map[string]any, r passResult) {
	if _, seen := info["violation"]; seen {
		return
	}
	if r.bad != nil {
		info["violation"] = r.bad.String()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.bad)
	} else if r.capped {
		info["violation"] = "a producer ran out of sequence numbers; raise maxRate"
	}
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// environment records what the numbers depend on, so results from
// different hosts are never compared silently.
func environment(seed uint64) map[string]any {
	// The work spin's calibration, as the time one requested millisecond
	// of workload.Delay takes.
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		workload.Delay(1_000_000)
		best = min(best, time.Since(t0))
	}
	return map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"cpu":              cpuModel(),
		"seed":             seed,
		"work_delay_ratio": float64(best) / 1e6,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
