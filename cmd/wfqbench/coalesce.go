package main

// The coalesce subcommand: the operation-coalescing baseline
// (BENCH_coalesce.json). One document records, for a single run on a single
// host:
//
//   - the platform,
//   - per window in {1, 4, 16, 64}: the deterministic zero-allocation gate
//     (the coalesced hot path — fixed in-handle buffers — must allocate
//     nothing at steady state; any nonzero allocs/op exits 1), the
//     run-grouped throughput of the wf-coalesce-w<N> variant, and its
//     pairwise wall ratio over plain wf-10 from interleaved best-of rounds,
//   - gates on the ratios: window 1 is a pure passthrough and must stay
//     within -tolerance of wf-10 (the coalescing layer may not tax the
//     disabled path), and window 16 — the headline — must not regress
//     below wf-10 (coalescing is never a pessimization; the grace absorbs
//     run noise).
//
// The workload is run-grouped (runs of B scalar enqueues, a flush, runs of
// B scalar dequeues): one value per call, the shape coalescing accelerates,
// without the lockstep of Pairs that degenerates every window to 1.
// Absolute Mops/s are trajectory; the gates are the allocation counts and
// the same-run pairwise ratios. The paper-motivated speedup target (>= 1.3x
// at window 16) is a multi-core expectation: on hosts with one hardware
// thread there is no FAA contention to amortize, so the measured ratio is
// recorded honestly and EXPERIMENTS.md carries the caveat.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"wfqueue/internal/bench"
	"wfqueue/internal/workload"
)

const coalesceSchema = "wfqueue/bench-coalesce/v1"

// coalesceGrace is the never-a-pessimization floor for the window-16 gate:
// the coalesced ratio over wf-10 must stay above 1-coalesceGrace.
const coalesceGrace = 0.10

// coalesceWindows maps each measured window to its registry variant.
var coalesceWindows = []struct {
	Window int
	Name   string
}{
	{1, "wf-coalesce-w1"},
	{4, "wf-coalesce-w4"},
	{16, "wf-coalesce"},
	{64, "wf-coalesce-w64"},
}

type coalesceDoc struct {
	Schema   string       `json:"schema"`
	Platform jsonPlatform `json:"platform"`
	Params   jsonParams   `json:"params"`
	// RunLength is the run-grouped workload's B (scalar enqueues per run).
	RunLength int `json:"run_length"`
	// WF10WallMops is the plain-queue side of every pairwise ratio,
	// interleaved best-of across all windows' rounds.
	WF10WallMops float64       `json:"wf10_wall_mops"`
	Windows      []coalesceRow `json:"windows"`
}

type coalesceRow struct {
	Window int    `json:"window"`
	Queue  string `json:"queue"`
	// SteadyAllocsPerOp is the deterministic in-process measurement the
	// zero-alloc gate keys on (bench.CoalesceSteadyStateAllocs).
	SteadyAllocsPerOp float64 `json:"steady_allocs_per_op"`
	SteadyBytesPerOp  float64 `json:"steady_bytes_per_op"`
	Mops              float64 `json:"mops"`
	WallMops          float64 `json:"wall_mops"`
	AllocsPerOp       float64 `json:"allocs_per_op"` // harness Run, memory trial
	// OverWF10 is this window's wall throughput over wf-10's under the
	// identical run-grouped workload, interleaved best-of rounds.
	OverWF10 float64 `json:"over_wf10_wall"`
}

func runCoalesce(o options, tolerance float64) {
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	if o.threadsSet {
		threads = o.threads[0]
	}
	runLength := 16
	if o.batch > 1 {
		runLength = o.batch
	}

	doc := coalesceDoc{Schema: coalesceSchema, RunLength: runLength}
	p := bench.DetectPlatform()
	doc.Platform = jsonPlatform{
		Model:      p.Model,
		HWThreads:  p.Threads,
		GOOS:       p.GOOS,
		GOARCH:     p.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	doc.Params = jsonParams{
		Workload: workload.RunGrouped.String(),
		Threads:  threads,
		Ops:      o.ops,
		Trials:   o.trials,
		Iters:    o.iters,
	}

	cfg := func(qn string) bench.Config {
		c := o.config(qn, workload.RunGrouped, threads)
		c.Batch = runLength
		return c
	}

	var failures []string
	grace := coalesceGrace
	if tolerance > grace {
		grace = tolerance
	}

	// The deterministic allocation gates first: cheap, exact, per window.
	const steadyOps = 200_000
	for _, w := range coalesceWindows {
		st := bench.CoalesceSteadyStateAllocs(steadyOps, w.Window)
		doc.Windows = append(doc.Windows, coalesceRow{
			Window:            w.Window,
			Queue:             w.Name,
			SteadyAllocsPerOp: st.AllocsPerOp,
			SteadyBytesPerOp:  st.BytesPerOp,
		})
		fmt.Printf("coalesce: window %2d steady state %.6f allocs/op over %d ops (%d segments recycled)\n",
			w.Window, st.AllocsPerOp, st.Ops, st.Recycled)
		if st.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf(
				"window %d: coalesced hot path allocated %.6f objects/op at steady state, want 0",
				w.Window, st.AllocsPerOp))
		}
	}

	// Pairwise run-grouped throughput: each window's rounds interleave with
	// a wf-10 round, and every side keeps its best — machine-load drift only
	// ever slows a round down, so best-of under interleaving is the fairest
	// same-run comparison (see pairedRounds).
	for i := range doc.Windows {
		row := &doc.Windows[i]
		var coalWall float64
		var coalRes bench.Result
		for r := 0; r < pairedRounds; r++ {
			cres, err := bench.Run(cfg(row.Queue))
			if err != nil {
				fatalf("coalesce %s: %v", row.Queue, err)
			}
			base, err := bench.Run(cfg("wf-10"))
			if err != nil {
				fatalf("coalesce wf-10: %v", err)
			}
			if cres.WallInterval.Mean > coalWall {
				coalWall = cres.WallInterval.Mean
				coalRes = cres
			}
			doc.WF10WallMops = max(doc.WF10WallMops, base.WallInterval.Mean)
		}
		row.Mops = coalRes.Mops()
		row.WallMops = coalWall
		row.AllocsPerOp = coalRes.AllocsPerOp
	}
	for i := range doc.Windows {
		row := &doc.Windows[i]
		if doc.WF10WallMops > 0 {
			row.OverWF10 = row.WallMops / doc.WF10WallMops
		}
		fmt.Printf("coalesce: window %2d (%-16s) %8.2f wall Mops/s  %.2fx wf-10  %.6f allocs/op\n",
			row.Window, row.Queue, row.WallMops, row.OverWF10, row.AllocsPerOp)
		switch row.Window {
		case 1:
			// The passthrough must not tax the disabled path.
			if row.OverWF10 < 1-tolerance {
				failures = append(failures, fmt.Sprintf(
					"window 1 passthrough runs %.2fx wf-10, below the %.2f floor (coalescing taxes the disabled path)",
					row.OverWF10, 1-tolerance))
			}
		case 16:
			// The headline window: never a pessimization. A -tolerance wider
			// than the grace widens this floor too (smoke-test runs are too
			// short for throughput gates to be meaningful).
			if row.OverWF10 < 1-grace {
				failures = append(failures, fmt.Sprintf(
					"window 16 runs %.2fx wf-10 on run-grouped, below the %.2f never-a-pessimization floor",
					row.OverWF10, 1-grace))
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("coalesce: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("coalesce: %v", err)
	}
	var w16 float64
	for _, row := range doc.Windows {
		if row.Window == 16 {
			w16 = row.OverWF10
		}
	}
	fmt.Printf("coalesce: wrote %s (w16/wf-10 = %.2fx at T=%d, run length %d)\n",
		o.outPath, w16, threads, runLength)

	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "wfqbench coalesce: GATE FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}
