package main

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/experiments"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
	"kunserve/internal/workload/spec"
)

// system is one serving system a workload runs: a stable metric slug and a
// factory for a fresh policy per cell.
type system struct {
	slug      string
	newPolicy func() cluster.Policy
}

func sys(s experiments.System, slug string) system {
	return system{slug: slug, newPolicy: func() cluster.Policy { return experiments.NewPolicy(s) }}
}

var (
	vllmDP    = sys(experiments.SysVLLMDP, "vllm_dp")
	vllmPP    = sys(experiments.SysVLLMPP, "vllm_pp")
	inferCept = sys(experiments.SysInferCept, "infercept")
	llumnix   = sys(experiments.SysLlumnix, "llumnix")
	kunServe  = sys(experiments.SysKunServe, "kunserve")
)

// allSystems lists every system slug any workload can run, in output order.
var allSystems = []system{vllmDP, vllmPP, inferCept, llumnix, kunServe}

// replica is one generated input of a workload: the trace and the
// experiment config that serves it. Everything in cfg other than the
// workload's shape keeps the program's default.
type replica struct {
	seed  int64
	cfg   experiments.Config
	trace *workload.Trace
}

// benchWorkload is one entry of the benchmark's fixed workload set.
type benchWorkload struct {
	name      string
	instances int
	// serves lists the systems a run serves, each on the first n of the
	// run's independently seeded traces. KunServe's simulated metrics are
	// means over its traces, so it serves as many as the run affords, which
	// keeps its tail latencies comparable across seeds; a system whose
	// results vary less across traces, or that only needs timing, serves
	// fewer. No count depends on the host's speed.
	serves []serving
	build  func(seed int64) (replica, error)
}

// serving is one system of a workload and how many traces it serves.
type serving struct {
	system
	replicas int
}

// traces is how many traces a run generates: the most any system serves.
func (w *benchWorkload) traces() int {
	n := 0
	for _, s := range w.serves {
		n = max(n, s.replicas)
	}
	return n
}

// cellRef names one (replica, system) cell of a run.
type cellRef struct {
	replica int
	system  system
}

// cells lists one pass over the workload's cells, replica-major.
func (w *benchWorkload) cells() []cellRef {
	var out []cellRef
	for r := 0; r < w.traces(); r++ {
		for _, s := range w.serves {
			if r < s.replicas {
				out = append(out, cellRef{r, s.system})
			}
		}
	}
	return out
}

// workloads is the benchmark's fixed workload set. agentic-prefix runs by
// name but is not in BENCHMARK.json: KunServe's restore path panics on it
// at many seeds, and the benchmark's workloads must not fail.
var workloads = []*benchWorkload{
	{
		name:      "burst-drop",
		instances: 8,
		serves: []serving{{vllmDP, 10}, {vllmPP, 2}, {inferCept, 2}, {llumnix, 2},
			{kunServe, 10}},
		build: buildBurstDrop,
	},
	{
		name:      "fleet-diurnal",
		instances: 64,
		serves:    []serving{{vllmDP, 3}, {kunServe, 8}},
		build:     buildFleetDiurnal,
	},
	{
		name:      "agentic-prefix",
		instances: 8,
		serves:    []serving{{vllmDP, 1}, {kunServe, 1}},
		build:     buildAgenticPrefix,
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// replicaSeed maps the run seed to replica r's trace seed. Replica 0 uses
// the run seed itself, so a one-replica run reproduces the CLI's trace for
// that seed exactly.
func replicaSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	return runner.DeriveSeed(seed, fmt.Sprintf("replica/%d", r))
}

// derivedRPS is the §5.1 request rate for a Cluster A fleet of n instances:
// the pre-burst rate targets 45% of the fleet's compute throughput at
// BurstGPT's mean lengths (700 in, 280 out). It is the rate
// experiments.Config derives by default and `-exp scale` uses per rung.
func derivedRPS(n int) float64 {
	m, g := model.Qwen25_14B(), gpu.A800()
	perInstance := g.PeakFLOPS * g.ComputeEff * float64(m.GPUsPerInstance) /
		(2 * float64(m.ActiveParamCount))
	return 0.45 * perInstance * float64(n) / (700 + 280)
}

// buildBurstDrop is Figure 16's 640 s BurstGPT run with two burst waves on
// Cluster A, served with the exact (record-retaining) collector.
func buildBurstDrop(seed int64) (replica, error) {
	const n = 8
	d := 640 * sim.Second
	rps := derivedRPS(n)
	tr := workload.Generate(seed, d, workload.ScaledLongRunSchedule(rps, d),
		workload.BurstGPTDataset())
	cfg := experiments.Config{Seed: seed, Instances: n, Duration: d, BaseRPS: rps}
	return replica{seed: seed, cfg: cfg, trace: tr}, nil
}

// buildFleetDiurnal is one `-exp scale` rung: 64 instances, 600 s of
// sine-modulated load (amplitude 0.5, four periods) with streaming metrics
// and lazy arrivals.
func buildFleetDiurnal(seed int64) (replica, error) {
	const n = 64
	d := 600 * sim.Second
	rps := derivedRPS(n)
	proc, err := arrival.NewDiurnal(rps, 0.5, d/4, 0)
	if err != nil {
		return replica{}, err
	}
	tr := workload.GenerateProcess(seed, d, proc, workload.BurstGPTDataset())
	cfg := experiments.Config{Seed: seed, Instances: n, Duration: d, BaseRPS: rps, Stream: true}
	return replica{seed: seed, cfg: cfg, trace: tr}, nil
}

// agenticSpec is the agentic-prefix mix: 16 agent clients with distinct
// 1500-token system prompts plus 8 BurstGPT chat clients, all on the burst
// schedule, at 14 req/s over Cluster A (1.75 req/s per instance).
func agenticSpec(seed int64) *spec.Spec {
	s := &spec.Spec{Name: "agentic-prefix", Seed: seed, DurationS: 600, TotalRPS: 14}
	for i := 0; i < 16; i++ {
		s.Clients = append(s.Clients, spec.Client{
			Name:         fmt.Sprintf("agent%02d", i),
			RateFraction: 0.04,
			SharedPrefix: 1500,
			Arrival:      spec.Arrival{Process: "burst"},
			Input:        &spec.Length{Mean: 2200, Sigma: 0.4, Min: 1600, Max: 8192},
			Output:       &spec.Length{Mean: 250, Sigma: 0.8, Min: 4, Max: 2048},
		})
	}
	for i := 0; i < 8; i++ {
		s.Clients = append(s.Clients, spec.Client{
			Name:         fmt.Sprintf("chat%d", i),
			RateFraction: 0.045,
			Arrival:      spec.Arrival{Process: "burst"},
			Dataset:      "burstgpt",
		})
	}
	return s
}

// buildAgenticPrefix compiles the agentic spec and serves it with prefix
// caching on (LRU eviction, default router).
func buildAgenticPrefix(seed int64) (replica, error) {
	s := agenticSpec(seed)
	if err := s.Validate(); err != nil {
		return replica{}, err
	}
	tr, err := s.Compile()
	if err != nil {
		return replica{}, err
	}
	cfg := experiments.Config{Seed: seed, WorkloadSpec: s, PrefixCaching: true}
	return replica{seed: seed, cfg: cfg, trace: tr}, nil
}

// simTokens is the simulated work of a trace: prompt plus output tokens.
func simTokens(tr *workload.Trace) int64 {
	var n int64
	for _, r := range tr.Requests {
		n += int64(r.InputLen + r.OutputLen)
	}
	return n
}
