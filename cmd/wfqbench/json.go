package main

// The json subcommand: the repository's machine-readable perf baseline
// (BENCH_core.json). One document records, for a single run on a single
// host:
//
//   - the platform (so baselines from different hosts are never compared
//     blindly),
//   - the core queue's steady-state allocation count — the CI gate: any
//     nonzero allocs/op on the recycling hot path exits 1,
//   - throughput + memory metrics (allocs/op, bytes/op, GC pauses) for
//     every selected queue under the pairs workload,
//   - the pairwise wf-10-recycle / wf-10 throughput ratio from this same
//     run, the regression-visible headline for the zero-allocation memory
//     path.
//
// Thresholding on cross-run throughput is deliberately NOT done here:
// shared CI runners make absolute Mops/s unstable. The allocation gate is
// exact and deterministic; the throughput rows are the recorded
// trajectory.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"wfqueue/internal/bench"
	"wfqueue/internal/registry"
	"wfqueue/internal/workload"
)

const benchSchema = "wfqueue/bench-core/v1"

type jsonDoc struct {
	Schema   string       `json:"schema"`
	Platform jsonPlatform `json:"platform"`
	Params   jsonParams   `json:"params"`
	Core     jsonCore     `json:"core_steady_state"`
	Queues   []jsonQueue  `json:"queues"`
	Pairwise jsonPairwise `json:"pairwise"`
}

type jsonPlatform struct {
	Model      string `json:"model"`
	HWThreads  int    `json:"hw_threads"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type jsonParams struct {
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Ops      int    `json:"ops"`
	Trials   int    `json:"trials"`
	Iters    int    `json:"iters"`
}

// jsonCore is the deterministic zero-allocation measurement the CI gate
// keys on (bench.SteadyStateAllocs).
type jsonCore struct {
	Ops              int     `json:"ops"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	BytesPerOp       float64 `json:"bytes_per_op"`
	RecycledSegments uint64  `json:"recycled_segments"`
}

type jsonQueue struct {
	Name        string  `json:"name"`
	Mops        float64 `json:"mops"`          // work-excluded steady-state mean
	MopsCIHalf  float64 `json:"mops_ci_half"`  // 95% CI half-width
	WallMops    float64 `json:"wall_mops"`     // wall-clock mean (work included)
	AllocsPerOp float64 `json:"allocs_per_op"` // harness Run, memory trial
	BytesPerOp  float64 `json:"bytes_per_op"`
	GCPauseNS   uint64  `json:"gc_pause_total_ns"`
	GCCycles    uint32  `json:"gc_cycles"`
	// StallRetainedBytes is the GC-settled live-heap growth across a short
	// stalled-consumer phase (bench.RunStall): the baseline's memory axis.
	// Bounded queues stay near zero; unbounded queues buffer the phase. A
	// pointer so documents from before the field read as absent rather
	// than as a spurious measured zero.
	StallRetainedBytes *uint64 `json:"stall_retained_bytes,omitempty"`
}

type jsonPairwise struct {
	// RecycleVsBase is wf-10-recycle wall throughput over wf-10's, from
	// this run: the cost (or win) of the recycling memory path against the
	// GC path, measured under identical conditions.
	RecycleVsBase float64 `json:"wf10_recycle_over_wf10_wall"`
	// ShardedVsBase is the first selected wf-sharded* variant's wall
	// throughput over wf-10's, from this run: the lane-scaling headline.
	// Present only when a sharded variant is in the queue set. On hosts
	// with one hardware thread there is no FAA contention to relieve, so
	// a ratio near 1.0 is the honest expectation there (see
	// EXPERIMENTS.md); the field exists to carry the trajectory on hosts
	// where the single-FAA wall is real.
	ShardedVsBase float64 `json:"wf_sharded_over_wf10_wall,omitempty"`
	// ShardedName records which variant ShardedVsBase measured.
	ShardedName string `json:"wf_sharded_variant,omitempty"`
}

// jsonQueueSet returns the queues the baseline covers: the user's -queues
// selection with the pairwise pair (wf-10, wf-10-recycle) always included.
func jsonQueueSet(selected []string) []string {
	qs := slices.Clone(selected)
	for _, need := range []string{"wf-10", "wf-10-recycle"} {
		if !slices.Contains(qs, need) {
			qs = append(qs, need)
		}
	}
	return qs
}

func runJSON(o options) {
	// One thread count per queue keeps the emitter CI-sized (~1s per
	// queue with the smoke parameters). Default: the host's core count
	// capped at 4 so laptop and CI baselines exercise comparable
	// contention.
	threads := runtime.NumCPU()
	if threads > 4 {
		threads = 4
	}
	if o.threadsSet {
		threads = o.threads[0]
	}

	// The exact gate first: cheap, deterministic, and if it fails the
	// baseline below would be recording a broken memory path anyway.
	const coreOps = 200_000
	core := bench.SteadyStateAllocs(coreOps)
	doc := jsonDoc{
		Schema: benchSchema,
		Core: jsonCore{
			Ops:              core.Ops,
			AllocsPerOp:      core.AllocsPerOp,
			BytesPerOp:       core.BytesPerOp,
			RecycledSegments: core.Recycled,
		},
	}
	p := bench.DetectPlatform()
	doc.Platform = jsonPlatform{
		Model:      p.Model,
		HWThreads:  p.Threads,
		GOOS:       p.GOOS,
		GOARCH:     p.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	doc.Params = jsonParams{
		Workload: workload.Pairs.String(),
		Threads:  threads,
		Ops:      o.ops,
		Trials:   o.trials,
		Iters:    o.iters,
	}

	byName := map[string]jsonQueue{}
	for _, qn := range jsonQueueSet(o.queues) {
		res, err := bench.Run(o.config(qn, workload.Pairs, threads))
		if err != nil {
			fatalf("json %s: %v", qn, err)
		}
		row := jsonQueue{
			Name:        qn,
			Mops:        res.Mops(),
			MopsCIHalf:  res.Interval.Half(),
			WallMops:    res.WallInterval.Mean,
			AllocsPerOp: res.AllocsPerOp,
			BytesPerOp:  res.BytesPerOp,
			GCPauseNS:   res.GCPauseNS,
			GCCycles:    res.GCCycles,
		}
		if retained, ok := stallRetained(qn); ok {
			row.StallRetainedBytes = &retained
		}
		doc.Queues = append(doc.Queues, row)
		byName[qn] = row
		fmt.Printf("json: %-14s %8.2f Mops/s (wall %.2f)  %.4f allocs/op  %.1f B/op  retained %s\n",
			qn, row.Mops, row.WallMops, row.AllocsPerOp, row.BytesPerOp, retainedStr(row.StallRetainedBytes))
	}
	if base, ok := byName["wf-10"]; ok && base.WallMops > 0 {
		doc.Pairwise.RecycleVsBase = byName["wf-10-recycle"].WallMops / base.WallMops
		for _, row := range doc.Queues {
			if strings.HasPrefix(row.Name, "wf-sharded") {
				doc.Pairwise.ShardedVsBase = row.WallMops / base.WallMops
				doc.Pairwise.ShardedName = row.Name
				break
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("json: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(o.outPath, buf, 0o644); err != nil {
		fatalf("json: %v", err)
	}
	fmt.Printf("json: wrote %s (core steady state: %.4f allocs/op over %d ops, %d segments recycled; recycle/base = %.2fx)\n",
		o.outPath, core.AllocsPerOp, core.Ops, core.Recycled, doc.Pairwise.RecycleVsBase)

	if core.AllocsPerOp > 0 {
		fatalf("core hot path allocated %.4f objects/op at steady state, want 0 (gate failed)", core.AllocsPerOp)
	}
}

// stallRetained measures the queue's live-heap retention across a short
// stalled-consumer phase, the memory axis recorded per baseline row and
// surfaced by compare. Microbenchmarks (no real queue semantics to drain)
// are skipped, reported as absent.
func stallRetained(qn string) (uint64, bool) {
	if !registry.IsRealQueue(qn) {
		return 0, false
	}
	cfg := bench.DefaultStallConfig(qn)
	cfg.StallOps = 20_000
	cfg.WarmOps = 256
	res, err := bench.RunStall(cfg)
	if err != nil {
		fatalf("json stall %s: %v", qn, err)
	}
	return res.RetainedBytes, true
}

// retainedStr formats an optional retained-bytes figure, "-" when absent.
func retainedStr(b *uint64) string {
	if b == nil {
		return "-"
	}
	return fmt.Sprintf("%d B", *b)
}

// pairedRounds is how many interleaved measurement rounds one pairwise
// cell runs. Each side's figure is its best round: interference from
// other load only ever slows a round down, so best-of-R with the sides
// interleaved cancels the machine-load drift that would otherwise dominate
// a few-percent pairwise ratio measured minutes apart.
const pairedRounds = 2
