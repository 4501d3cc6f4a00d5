package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
)

// ScaleCell is one (fleet size x system) point of the scale sweep.
type ScaleCell struct {
	System   string
	Finished int
	Unserved int

	TTFTP50 float64
	TTFTP99 float64
	TPOTP99 float64

	// Throughput is generated tokens/second across the run span.
	Throughput float64

	// Drops/Restores echo the reconfiguration log (KunServe only).
	Drops    int
	Restores int
}

// ScaleRung is one fleet size of the ladder: the diurnal trace served at
// that size and the per-system outcomes.
type ScaleRung struct {
	Instances int
	Requests  int
	AvgRPS    float64

	Systems []ScaleCell

	// WallSeconds is the slowest cell's host wall-clock span at this rung.
	// Rungs overlap across the run set's worker pool, so a rung has no wall
	// of its own; the slowest cell is what bounds it. Excluded from the
	// simulation-result JSON surface via the Timing block instead — this
	// mirror feeds the text printer only.
	WallSeconds float64 `json:"-"`
}

// ScaleCellTiming is one cell's host wall clock inside the timing block.
type ScaleCellTiming struct {
	System      string
	WallSeconds float64
}

// ScaleRungTiming is one rung's host timing: per-cell walls and their max.
type ScaleRungTiming struct {
	Instances   int
	WallSeconds float64
	// SecondsPerInstance normalizes the rung wall by fleet size. With the
	// incremental router index the dispatch cost per request is O(log n),
	// so this figure should stay flat up the ladder; a superlinear
	// dispatcher shows up here as growth with Instances.
	SecondsPerInstance float64
	Cells              []ScaleCellTiming
}

// ScaleTiming carries the sweep's host-side timing and worker configuration.
// It is machine-dependent by nature, so determinism checks that diff scale
// output across runs or worker counts must strip the "Timing" key first —
// everything outside it is byte-identical at any parallelism.
type ScaleTiming struct {
	// Workers is the cell-level worker bound the sweep executed with.
	Workers int
	// GOMAXPROCS/NumCPU record the host the numbers were measured on.
	GOMAXPROCS int
	NumCPU     int
	// TotalWallSeconds spans the whole sweep, trace generation included.
	TotalWallSeconds float64
	// HeapInuseMB and SysMB snapshot the Go runtime's memory at sweep end
	// (runtime.ReadMemStats): live heap, and total memory obtained from
	// the OS. Sys grows monotonically, so it approximates the process
	// high-water mark — the figure the BENCH_scale RSS note reports.
	HeapInuseMB float64
	SysMB       float64
	Rungs       []ScaleRungTiming
}

// ScaleResult is the cluster-scale streaming sweep: a ladder of fleet sizes
// each serving an hour-class diurnal trace in bounded-memory mode.
type ScaleResult struct {
	Duration sim.Duration
	Rungs    []ScaleRung
	// Timing is the host-side wall-clock report (nil until the sweep ran).
	Timing *ScaleTiming `json:"Timing,omitempty"`
}

// ScaleMinInstances is the smallest rung of the scale ladder.
const ScaleMinInstances = 2

// scaleLadder derives the fleet ladder from the target size: quarter, half,
// and full fleet, deduplicated, never below ScaleMinInstances.
func scaleLadder(target int) []int {
	if target < ScaleMinInstances {
		target = ScaleMinInstances
	}
	var ladder []int
	for _, n := range []int{target / 4, target / 2, target} {
		if n < ScaleMinInstances {
			n = ScaleMinInstances
		}
		if len(ladder) == 0 || ladder[len(ladder)-1] != n {
			ladder = append(ladder, n)
		}
	}
	return ladder
}

// scaleSystems lists the systems every rung serves, in output order.
var scaleSystems = []System{SysVLLMDP, SysKunServe}

// ExperimentScale runs the cluster-scale streaming sweep: for each rung of
// the fleet ladder, an hour-class sine-modulated diurnal trace (4 load
// cycles over the configured duration) is served by vLLM (DP) and KunServe
// with streaming metrics and lazy arrivals forced on, so memory stays
// bounded by the live request population rather than the trace length.
// Every (rung x system) cell joins one shared run set, so small rungs
// overlap the big one across cores instead of idling behind it; the sweep's
// wall clock approaches the slowest single cell at 4+ workers. The price is
// that all rung traces are generated up front (~1.75x the top rung's trace
// in memory); results are byte-identical to per-rung sequential execution
// because cells are self-contained and results return in submission order.
func ExperimentScale(cfg Config) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &ScaleResult{Duration: cfg.Duration}
	period := cfg.Duration / 4
	set := runner.NewSet(cfg.Parallel)
	set.Obs = cfg.TraceSink
	for _, n := range scaleLadder(cfg.Instances) {
		rc := cfg
		rc.Instances = n
		rc.Stream = true
		// Re-derive the rate for this rung's fleet so every rung runs at
		// the same per-instance load (the ladder scales the cluster, not
		// the pressure).
		rc.BaseRPS = rc.defaultRPS()
		if rc.LoadMultiplier > 0 {
			rc.BaseRPS *= rc.LoadMultiplier
		}
		proc, err := arrival.NewDiurnal(rc.BaseRPS, 0.5, period, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale rung %d: %w", n, err)
		}
		seed := runner.DeriveSeed(rc.Seed, fmt.Sprintf("scale/%d", n))
		tr := workload.GenerateProcess(seed, rc.Duration, proc, rc.Dataset)
		res.Rungs = append(res.Rungs, ScaleRung{
			Instances: n,
			Requests:  len(tr.Requests),
			AvgRPS:    tr.AvgRPS(),
		})
		for _, sys := range scaleSystems {
			sys := sys
			set.Add(runner.Cell{
				Key:       fmt.Sprintf("scale/%d/%s", n, sys),
				Cluster:   rc.clusterConfig(tr),
				NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
				Trace:     tr,
				Horizon:   tr.Duration().Add(rc.HorizonSlack),
			})
		}
	}
	results, err := set.Execute()
	if err != nil {
		return nil, err
	}
	timing := &ScaleTiming{
		Workers:    set.Parallel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	i := 0
	for ri := range res.Rungs {
		rung := &res.Rungs[ri]
		rt := ScaleRungTiming{Instances: rung.Instances}
		for _, sys := range scaleSystems {
			r := results[i]
			i++
			s := r.Summary
			rung.Systems = append(rung.Systems, ScaleCell{
				System:     string(sys),
				Finished:   s.Finished,
				Unserved:   s.Unserved,
				TTFTP50:    s.TTFTP50,
				TTFTP99:    s.TTFTP99,
				TPOTP99:    s.TPOTP99,
				Throughput: s.Throughput,
				Drops:      s.Drops,
				Restores:   s.Restores,
			})
			rt.Cells = append(rt.Cells, ScaleCellTiming{
				System:      string(sys),
				WallSeconds: r.WallSeconds,
			})
			if r.WallSeconds > rt.WallSeconds {
				rt.WallSeconds = r.WallSeconds
			}
		}
		rung.WallSeconds = rt.WallSeconds
		if rung.Instances > 0 {
			rt.SecondsPerInstance = rt.WallSeconds / float64(rung.Instances)
		}
		timing.Rungs = append(timing.Rungs, rt)
	}
	timing.TotalWallSeconds = time.Since(start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	timing.HeapInuseMB = float64(ms.HeapInuse) / (1 << 20)
	timing.SysMB = float64(ms.Sys) / (1 << 20)
	res.Timing = timing
	return res, nil
}

// PrintExperimentScale renders the result.
func PrintExperimentScale(w io.Writer, r *ScaleResult) {
	printHeader(w, "Scale: streaming fleet sweep (diurnal load)")
	fmt.Fprintf(w, "trace length %v, bounded metrics (reservoir %d), lazy arrivals\n",
		r.Duration, runner.DefaultReservoir)
	if t := r.Timing; t != nil {
		fmt.Fprintf(w, "workers %d on GOMAXPROCS %d / %d CPUs | total wall %.1fs | heap %.0f MB / sys %.0f MB\n",
			t.Workers, t.GOMAXPROCS, t.NumCPU, t.TotalWallSeconds,
			t.HeapInuseMB, t.SysMB)
	}
	for _, rung := range r.Rungs {
		fmt.Fprintf(w, "%4d instances | %d requests, %.1f req/s avg | slowest cell %.1fs (%.3f s/inst)\n",
			rung.Instances, rung.Requests, rung.AvgRPS, rung.WallSeconds,
			rung.WallSeconds/float64(rung.Instances))
		for _, c := range rung.Systems {
			fmt.Fprintf(w, "    %-10s finished %7d  unserved %6d  TTFT p50/p99 %.2f/%.2f s  TPOT p99 %.0f ms  %.0f tok/s",
				c.System, c.Finished, c.Unserved, c.TTFTP50, c.TTFTP99, c.TPOTP99*1e3, c.Throughput)
			if c.Drops+c.Restores > 0 {
				fmt.Fprintf(w, "  drops/restores %d/%d", c.Drops, c.Restores)
			}
			fmt.Fprintln(w)
		}
	}
}
