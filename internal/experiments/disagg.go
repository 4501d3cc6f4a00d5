package experiments

import (
	"fmt"
	"io"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/metrics"
	"kunserve/internal/runner"
)

// DisaggLoadPoints are the load multipliers (on the config's derived base
// RPS) the disaggregation experiment sweeps: the healthy operating point
// and a deep-overload one.
var DisaggLoadPoints = []float64{1.0, 1.4}

// DisaggSplit is one prefill:decode pool split.
type DisaggSplit struct {
	Prefill int
	Decode  int
}

func (s DisaggSplit) String() string { return fmt.Sprintf("%dP:%dD", s.Prefill, s.Decode) }

// DisaggMinInstances is the smallest fleet that expresses three distinct
// prefill:decode splits.
const DisaggMinInstances = 4

// DisaggSplits derives the swept splits for an instance count: prefill-
// light, balanced, and prefill-heavy. Needs at least DisaggMinInstances
// instances for three distinct splits.
func DisaggSplits(instances int) []DisaggSplit {
	out := []DisaggSplit{
		{1, instances - 1},
		{instances / 2, instances - instances/2},
		{instances - 1, 1},
	}
	uniq := out[:0]
	seen := map[DisaggSplit]bool{}
	for _, s := range out {
		if s.Prefill < 1 || s.Decode < 1 || seen[s] {
			continue
		}
		seen[s] = true
		uniq = append(uniq, s)
	}
	return uniq
}

// DisaggRow is one cell of the (system × load) grid. Split is empty for
// the collocated baselines.
type DisaggRow struct {
	System string
	Split  string
	Load   float64

	Finished int
	Unserved int

	TTFTP50, TTFTP99 float64
	TPOTP50, TPOTP99 float64
	Throughput       float64

	// Per-stage queueing breakdown (disaggregated cells only): how long
	// requests waited for prefill admission, how long completed prefills
	// waited for decode capacity (handoff back-pressure), how long their
	// KV handoff spent on the wire, and how long they waited for their
	// first decode on the destination pool.
	Handoffs                       int
	PrefillWaitP50, PrefillWaitP99 float64
	PendingWaitP50, PendingWaitP99 float64
	TransferP50, TransferP99       float64
	DecodeWaitP50, DecodeWaitP99   float64

	// TransferredGB/FullKVGB expose the handoff dedup: bytes shipped vs
	// what a cache-blind transfer would have shipped.
	TransferredGB float64
	FullKVGB      float64
}

// DisaggResult is the -exp disagg experiment: prefill:decode splits × load
// points against the collocated vLLM (DP) and KunServe references on the
// same traces.
type DisaggResult struct {
	Instances int
	Splits    []string
	Loads     []float64
	Rows      []DisaggRow
}

// Row finds the cell for (system, load), or nil.
func (r *DisaggResult) Row(system string, load float64) *DisaggRow {
	for i := range r.Rows {
		if r.Rows[i].System == system && r.Rows[i].Load == load {
			return &r.Rows[i]
		}
	}
	return nil
}

// ExperimentDisagg sweeps prefill:decode splits × load points against the
// collocated vLLM (DP) and KunServe baselines. Disaggregated cells route
// new prompts with the queue-depth router (decode groups are not dispatch
// candidates; their work arrives by KV handoff); baselines keep the
// config's router. A smaller instance count is raised to
// DisaggMinInstances.
func ExperimentDisagg(cfg Config) (*DisaggResult, error) {
	// The load axis scales the derived burst trace's rate; a workload
	// spec carries its own rates, which would leave the sweep inert and
	// every load point identical. Like fig16, this experiment builds its
	// own workloads (the CLI notes that -spec is ignored here).
	cfg.WorkloadSpec = nil
	cfg = cfg.withDefaults()
	if cfg.Instances < DisaggMinInstances {
		cfg.Instances = DisaggMinInstances
	}
	if err := cfg.ValidateSched(); err != nil {
		return nil, err
	}
	splits := DisaggSplits(cfg.Instances)
	res := &DisaggResult{Instances: cfg.Instances, Loads: DisaggLoadPoints}
	for _, s := range splits {
		res.Splits = append(res.Splits, s.String())
	}

	baseLoad := cfg.LoadMultiplier
	if baseLoad == 0 {
		baseLoad = 1
	}
	type cellMeta struct {
		system string
		split  string
		load   float64
	}
	var metas []cellMeta
	set := runner.NewSet(cfg.Parallel)
	set.Obs = cfg.TraceSink
	pols := make([]*baselines.Disagg, 0)
	for _, load := range DisaggLoadPoints {
		loadCfg := cfg
		loadCfg.BaseRPS = 0 // re-derive under the scaled multiplier
		loadCfg.LoadMultiplier = baseLoad * load
		loadCfg = loadCfg.withDefaults()
		tr, err := loadCfg.BuildTrace()
		if err != nil {
			return nil, err
		}
		for _, sys := range []System{SysVLLMDP, SysKunServe} {
			sys := sys
			set.Add(runner.Cell{
				Key:       fmt.Sprintf("%s/load=%.2f", sys, load),
				Cluster:   loadCfg.clusterConfig(tr),
				NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
				Trace:     tr,
				Horizon:   tr.Duration().Add(loadCfg.HorizonSlack),
			})
			metas = append(metas, cellMeta{string(sys), "", load})
			pols = append(pols, nil)
		}
		for _, split := range splits {
			split := split
			cellCfg := loadCfg
			cellCfg.Router = "queue-depth"
			// Each cell records its policy so the handoff byte counters
			// survive the runner dropping the cluster. Slots are
			// per-cell, so concurrent workers never share one.
			slot := len(pols)
			pols = append(pols, nil)
			set.Add(runner.Cell{
				Key:     fmt.Sprintf("disagg-%s/load=%.2f", split, load),
				Cluster: cellCfg.clusterConfig(tr),
				NewPolicy: func() cluster.Policy {
					p := baselines.NewDisagg(split.Prefill, split.Decode)
					pols[slot] = p
					return p
				},
				Trace:   tr,
				Horizon: tr.Duration().Add(cellCfg.HorizonSlack),
			})
			metas = append(metas, cellMeta{
				fmt.Sprintf("Disagg (%s)", split), split.String(), load})
		}
	}
	results, err := set.Execute()
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		s := r.Summary
		row := DisaggRow{
			System:     metas[i].system,
			Split:      metas[i].split,
			Load:       metas[i].load,
			Finished:   s.Finished,
			Unserved:   s.Unserved,
			TTFTP50:    s.TTFTP50,
			TTFTP99:    s.TTFTP99,
			TPOTP50:    s.TPOTP50,
			TPOTP99:    s.TPOTP99,
			Throughput: s.Throughput,
		}
		for _, st := range s.Stages {
			switch st.Stage {
			case metrics.StagePrefillQueue:
				row.PrefillWaitP50, row.PrefillWaitP99 = st.P50, st.P99
			case metrics.StageHandoffPending:
				row.PendingWaitP50, row.PendingWaitP99 = st.P50, st.P99
			case metrics.StageKVTransfer:
				row.Handoffs = st.Count
				row.TransferP50, row.TransferP99 = st.P50, st.P99
			case metrics.StageDecodeQueue:
				row.DecodeWaitP50, row.DecodeWaitP99 = st.P50, st.P99
			}
		}
		if p := pols[i]; p != nil {
			st := p.Stats()
			row.TransferredGB = float64(st.TransferredBytes) / 1e9
			row.FullKVGB = float64(st.FullKVBytes) / 1e9
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// PrintExperimentDisagg renders the grid plus a per-stage breakdown of
// the disaggregated cells.
func PrintExperimentDisagg(w io.Writer, r *DisaggResult) {
	printHeader(w, fmt.Sprintf("Prefill/decode disaggregation: splits x load on %d instances", r.Instances))
	fmt.Fprintf(w, "%-16s %-5s %9s %9s %9s %9s %10s %9s\n",
		"system", "load", "p50TTFT", "p99TTFT", "p50TPOT", "p99TPOT", "tok/s", "unserved")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %-5.2f %8.2fs %8.2fs %8.1fms %8.1fms %10.0f %9d\n",
			row.System, row.Load, row.TTFTP50, row.TTFTP99,
			row.TPOTP50*1000, row.TPOTP99*1000, row.Throughput, row.Unserved)
	}
	fmt.Fprintf(w, "\nstage-level queueing (disaggregated cells):\n")
	fmt.Fprintf(w, "%-16s %-5s %9s %12s %12s %12s %12s %12s\n",
		"system", "load", "handoffs", "p99 p-wait", "p99 pending", "p99 xfer", "p99 d-wait", "sent/full GB")
	for _, row := range r.Rows {
		if row.Split == "" {
			continue
		}
		fmt.Fprintf(w, "%-16s %-5.2f %9d %11.3fs %11.3fs %11.3fs %11.3fs %6.1f/%.1f\n",
			row.System, row.Load, row.Handoffs, row.PrefillWaitP99, row.PendingWaitP99,
			row.TransferP99, row.DecodeWaitP99, row.TransferredGB, row.FullKVGB)
	}
}
