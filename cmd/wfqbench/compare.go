package main

// The compare subcommand: the bench trajectory gate. It loads a committed
// baseline document (BENCH_core.json, written by `wfqbench json`), re-runs
// the same measurement with the baseline's own parameters, and fails (exit
// 1) when the fresh run regresses:
//
//   - allocation regressions always fail: the steady-state alloc gate is
//     deterministic, and any queue whose allocs/op grew beyond the baseline
//     (with a small absolute floor for measurement noise) is a real code
//     change, not runner jitter;
//   - throughput regressions beyond -tolerance (default 20%) fail only when
//     the fresh run is on the same platform as the baseline (model, hardware
//     threads, GOMAXPROCS) — cross-host Mops/s comparisons are noise, not
//     signal. -strict forces the throughput gate on anyway, for when the
//     operator knows the hosts are comparable.
//
// The comparison keys on wall-clock throughput (work included), the stabler
// of the two recorded series.
//
// The table also carries the baseline's memory axis: stall-retained bytes
// (live-heap growth across a short stalled-consumer phase) base vs fresh,
// informational, with "-" for baselines written before the field existed.
// The gated retention bounds live in `wfqbench scq`.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"wfqueue/internal/bench"
	"wfqueue/internal/workload"
)

func runCompare(o options, baselinePath string, tolerance float64, strict bool) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("compare: %v", err)
	}
	// Dispatch on the baseline's schema: the coalesce baseline has its own
	// shape and its own pairwise gates.
	var peek struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &peek); err != nil {
		fatalf("compare: %s: %v", baselinePath, err)
	}
	if peek.Schema == coalesceSchema {
		runCompareCoalesce(o, raw, baselinePath, tolerance, strict)
		return
	}
	if peek.Schema == topoSchema {
		runCompareTopo(o, raw, baselinePath, tolerance, strict)
		return
	}
	var base jsonDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("compare: %s: %v", baselinePath, err)
	}
	if base.Schema != benchSchema {
		fatalf("compare: %s has schema %q, want %q", baselinePath, base.Schema, benchSchema)
	}
	if tolerance <= 0 || tolerance >= 1 {
		fatalf("compare: bad -tolerance %.2f (need 0 < t < 1)", tolerance)
	}

	p := bench.DetectPlatform()
	samePlatform := p.Model == base.Platform.Model &&
		p.Threads == base.Platform.HWThreads &&
		runtime.GOMAXPROCS(0) == base.Platform.GOMAXPROCS
	gateThroughput := samePlatform || strict
	fmt.Printf("compare: baseline %s (%s, %d hw threads, GOMAXPROCS=%d)\n",
		baselinePath, base.Platform.Model, base.Platform.HWThreads, base.Platform.GOMAXPROCS)
	if !gateThroughput {
		fmt.Printf("compare: platform differs (%s, %d hw threads, GOMAXPROCS=%d) — throughput informational only (use -strict to gate)\n",
			p.Model, p.Threads, runtime.GOMAXPROCS(0))
	}

	// Re-measure with the baseline's parameters so rows are comparable.
	o.ops = base.Params.Ops
	o.trials = base.Params.Trials
	o.iters = base.Params.Iters
	baseKind, ok := workload.ParseKind(base.Params.Workload)
	if !ok {
		fmt.Printf("compare: unknown baseline workload %q, assuming %s\n",
			base.Params.Workload, workload.Pairs)
		baseKind = workload.Pairs
	}

	var failures []string

	// The deterministic gate first, against zero — not against the baseline:
	// the recycling hot path must never allocate, whatever the old file says.
	core := bench.SteadyStateAllocs(base.Core.Ops)
	fmt.Printf("compare: core steady state %.4f allocs/op over %d ops (baseline %.4f)\n",
		core.AllocsPerOp, core.Ops, base.Core.AllocsPerOp)
	if core.AllocsPerOp > 0 {
		failures = append(failures,
			fmt.Sprintf("core hot path allocates %.4f objects/op at steady state, want 0", core.AllocsPerOp))
	}

	fmt.Println()
	fmt.Println("queue | base wall Mops | fresh wall Mops | ratio | base allocs/op | fresh allocs/op | base retained | fresh retained")
	fmt.Println("--- | --- | --- | --- | --- | --- | --- | ---")
	for _, b := range base.Queues {
		res, err := bench.Run(o.config(b.Name, baseKind, base.Params.Threads))
		if err != nil {
			fatalf("compare %s: %v", b.Name, err)
		}
		fresh := res.WallInterval.Mean
		ratio := 0.0
		if b.WallMops > 0 {
			ratio = fresh / b.WallMops
		}
		// The memory axis: re-measure stall retention only for rows whose
		// baseline carries the field, so pre-field documents (and
		// microbenchmark rows) show "-" instead of a bogus comparison.
		var freshRetained *uint64
		if b.StallRetainedBytes != nil {
			if r, ok := stallRetained(b.Name); ok {
				freshRetained = &r
			}
		}
		fmt.Printf("%s | %.2f | %.2f | %.2fx | %.4f | %.4f | %s | %s\n",
			b.Name, b.WallMops, fresh, ratio, b.AllocsPerOp, res.AllocsPerOp,
			retainedStr(b.StallRetainedBytes), retainedStr(freshRetained))

		// Allocation gate: always on. A baseline that reads exactly 0 pins a
		// zero-allocation hot path, and the harness counts only the
		// workers' own allocations, so the runtime's cannot blur that
		// floor — demand exact zero back. Queues that allocate legitimately
		// (GC-reclaimed baselines) keep the relative gate with a noise floor.
		if b.AllocsPerOp == 0 {
			if res.AllocsPerOp > 0 {
				failures = append(failures, fmt.Sprintf(
					"%s: zero-allocation hot path now allocates %.6f allocs/op, want exactly 0",
					b.Name, res.AllocsPerOp))
			}
		} else if res.AllocsPerOp > b.AllocsPerOp*1.1+0.02 {
			failures = append(failures, fmt.Sprintf(
				"%s: steady-state allocations regressed %.4f -> %.4f allocs/op",
				b.Name, b.AllocsPerOp, res.AllocsPerOp))
		}
		if gateThroughput && b.WallMops > 0 && ratio < 1-tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: wall throughput regressed %.2f -> %.2f Mops/s (%.0f%% < -%0.f%% tolerance)",
				b.Name, b.WallMops, fresh, 100*(ratio-1), 100*tolerance))
		}
	}
	fmt.Println()

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "wfqbench compare: REGRESSION: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("compare: OK — no alloc regressions, throughput within %.0f%% of baseline%s\n",
		100*tolerance, map[bool]string{true: "", false: " (throughput informational)"}[gateThroughput])
}

// runCompareCoalesce is the trajectory gate over a coalesce baseline
// (wfqbench coalesce): it re-runs the per-window zero-allocation gate
// (always; deterministic) and the pairwise run-grouped ratios against wf-10
// with the baseline's own parameters. The pairwise gates are same-run
// ratios, so they apply whenever throughput gating is on: window 1 within -tolerance of wf-10, and window 16 — coalescing's
// headline — never below wf-10 minus the noise grace (a coalesced queue
// must never be a pessimization against the plain queue it wraps).
func runCompareCoalesce(o options, raw []byte, baselinePath string, tolerance float64, strict bool) {
	var base coalesceDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("compare: %s: %v", baselinePath, err)
	}
	if tolerance <= 0 || tolerance >= 1 {
		fatalf("compare: bad -tolerance %.2f (need 0 < t < 1)", tolerance)
	}
	p := bench.DetectPlatform()
	samePlatform := p.Model == base.Platform.Model &&
		p.Threads == base.Platform.HWThreads &&
		runtime.GOMAXPROCS(0) == base.Platform.GOMAXPROCS
	gate := samePlatform || strict
	fmt.Printf("compare: coalesce baseline %s (%s, %d hw threads, run length %d)\n",
		baselinePath, base.Platform.Model, base.Platform.HWThreads, base.RunLength)
	if !gate {
		fmt.Printf("compare: platform differs (%s, %d hw threads) — pairwise ratios informational only (use -strict to gate)\n",
			p.Model, p.Threads)
	}

	o.ops = base.Params.Ops
	o.trials = base.Params.Trials
	o.iters = base.Params.Iters
	cfg := func(qn string) bench.Config {
		c := o.config(qn, workload.RunGrouped, base.Params.Threads)
		c.Batch = base.RunLength
		return c
	}

	var failures []string
	fmt.Println("window | queue | base ratio | fresh wall Mops | fresh wf-10 | fresh ratio | steady allocs/op")
	fmt.Println("--- | --- | --- | --- | --- | --- | ---")
	for _, row := range base.Windows {
		st := bench.CoalesceSteadyStateAllocs(200_000, row.Window)
		if st.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf(
				"window %d: coalesced hot path allocates %.6f objects/op at steady state, want 0",
				row.Window, st.AllocsPerOp))
		}
		var coalWall, baseWall float64
		for r := 0; r < pairedRounds; r++ {
			cres, err := bench.Run(cfg(row.Queue))
			if err != nil {
				fatalf("compare coalesce %s: %v", row.Queue, err)
			}
			bres, err := bench.Run(cfg("wf-10"))
			if err != nil {
				fatalf("compare coalesce wf-10: %v", err)
			}
			coalWall = math.Max(coalWall, cres.WallInterval.Mean)
			baseWall = math.Max(baseWall, bres.WallInterval.Mean)
		}
		ratio := 0.0
		if baseWall > 0 {
			ratio = coalWall / baseWall
		}
		fmt.Printf("%d | %s | %.2fx | %.2f | %.2f | %.2fx | %.6f\n",
			row.Window, row.Queue, row.OverWF10, coalWall, baseWall, ratio, st.AllocsPerOp)
		if !gate {
			continue
		}
		switch row.Window {
		case 1:
			if ratio < 1-tolerance {
				failures = append(failures, fmt.Sprintf(
					"window 1 passthrough runs %.2fx wf-10, below the %.2f floor", ratio, 1-tolerance))
			}
		case 16:
			grace := coalesceGrace
			if tolerance > grace {
				grace = tolerance
			}
			if ratio < 1-grace {
				failures = append(failures, fmt.Sprintf(
					"window 16 runs %.2fx wf-10 on run-grouped, below the %.2f never-a-pessimization floor",
					ratio, 1-grace))
			}
		}
	}
	fmt.Println()
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "wfqbench compare: REGRESSION: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("compare: OK — coalesce gates hold (zero allocs at every window; pairwise ratios within bounds)")
}

// runCompareTopo is the trajectory gate over a topo baseline (wfqbench
// topo): it re-runs the deterministic topology zero-allocation gate
// (always; the fake topology inside makes it host-independent) and
// re-measures the pairwise topo-over-sharded ratio at the baseline's own
// top-of-sweep thread count with interleaved best-of rounds. The pairwise
// floor applies only when throughput gating is on AND this host has more
// than one hardware thread — a degenerate host runs both variants on one
// lane and the ratio is scheduler noise, exactly as at emit time.
func runCompareTopo(o options, raw []byte, baselinePath string, tolerance float64, strict bool) {
	var base topoDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("compare: %s: %v", baselinePath, err)
	}
	if tolerance <= 0 || tolerance >= 1 {
		fatalf("compare: bad -tolerance %.2f (need 0 < t < 1)", tolerance)
	}
	p := bench.DetectPlatform()
	samePlatform := p.Model == base.Platform.Model &&
		p.Threads == base.Platform.HWThreads &&
		runtime.GOMAXPROCS(0) == base.Platform.GOMAXPROCS
	gate := (samePlatform || strict) && runtime.NumCPU() > 1
	fmt.Printf("compare: topo baseline %s (%s, %d hw threads, pair procs %d, degenerate=%v)\n",
		baselinePath, base.Platform.Model, base.Platform.HWThreads, base.PairProcs, base.Degenerate)
	if !gate {
		fmt.Printf("compare: pairwise ratio informational only (platform differs or single hardware thread; -strict gates cross-platform)\n")
	}

	var failures []string
	st := bench.TopoSteadyStateAllocs(base.Steady.Ops)
	fmt.Printf("compare: topo steady state %.6f allocs/op over %d ops (baseline %.6f)\n",
		st.AllocsPerOp, st.Ops, base.Steady.AllocsPerOp)
	if st.AllocsPerOp > 0 {
		failures = append(failures, fmt.Sprintf(
			"topology hot path allocates %.6f objects/op at steady state, want 0", st.AllocsPerOp))
	}

	o.ops = base.Params.Ops
	o.trials = base.Params.Trials
	o.iters = base.Params.Iters
	top := base.PairProcs
	if top < 1 {
		top = base.Params.Threads
	}
	prev := runtime.GOMAXPROCS(top)
	var topoWall, shardedWall float64
	for r := 0; r < pairedRounds; r++ {
		tres, err := bench.Run(o.config("wf-sharded-topo", workload.Pairs, top))
		if err != nil {
			runtime.GOMAXPROCS(prev)
			fatalf("compare topo wf-sharded-topo: %v", err)
		}
		sres, err := bench.Run(o.config("wf-sharded", workload.Pairs, top))
		if err != nil {
			runtime.GOMAXPROCS(prev)
			fatalf("compare topo wf-sharded: %v", err)
		}
		topoWall = math.Max(topoWall, tres.WallInterval.Mean)
		shardedWall = math.Max(shardedWall, sres.WallInterval.Mean)
	}
	runtime.GOMAXPROCS(prev)
	ratio := 0.0
	if shardedWall > 0 {
		ratio = topoWall / shardedWall
	}
	fmt.Printf("compare: topo/sharded base %.2fx, fresh %.2f / %.2f = %.2fx at procs=%d\n",
		base.TopoOverSharded, topoWall, shardedWall, ratio, top)
	if gate && ratio > 0 && ratio < 1-tolerance {
		failures = append(failures, fmt.Sprintf(
			"wf-sharded-topo runs %.2fx wf-sharded at procs=%d, below the %.2f floor",
			ratio, top, 1-tolerance))
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "wfqbench compare: REGRESSION: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("compare: OK — topo gates hold (zero allocs on the topology surface; pairwise ratio within bounds)")
}
