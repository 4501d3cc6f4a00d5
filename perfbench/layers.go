package main

import (
	"fmt"
	"io"
	"time"
)

// span is one timed harness call. Parent indexes the enclosing span, -1 at
// the top level.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay only a nil check per call.
type spanLog struct {
	t0    time.Time
	open  []int
	Spans []span `json:"spans"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	i := len(l.Spans)
	l.Spans = append(l.Spans, span{Name: name, Start: time.Since(l.t0).Seconds(), Parent: parent})
	l.open = append(l.open, i)
	return func() {
		l.Spans[i].End = time.Since(l.t0).Seconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// meanSeconds is the mean duration of the spans with the given name (0
// when there are none).
func (l *spanLog) meanSeconds(name string) float64 {
	var sum float64
	var n int
	for _, s := range l.Spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// perLayer lists the traced run's metrics in output order, each with the
// end-to-end metric and workload it should move. cpu.<layer> and
// span.cell.<system>_s entries are generated from layers and allSystems.
var perLayer = append(append(cpuMetrics(), cellSpanMetrics()...), []metricDef{
	{"trace.attributed_frac", "frac", "higher", "none: share of CPU samples bucketed to a named layer or gc"},
	{"trace_overhead_frac", "frac", "lower", "none: traced throughput's shortfall against the untraced pass"},
	{"span.trace_gen_s", "s", "lower", "setup_s"},
	{"span.summarize_s", "s", "lower", onBoth},
	{"sim.events", "count", "lower", onBoth},
	{"sim.host_ns_per_event", "ns", "lower", onBoth},
	{"engine.rounds", "count", "lower", onFleet},
	{"engine.plan_hit_frac", "frac", "higher", onFleet},
	{"cluster.monitor_skipped", "count", "higher", onFleet},
	{"kvcache.prefix_hit_rate", "frac", "higher", "kunserve_ttft_p50_s on agentic-prefix"},
	{"kvcache.prefix_lookups", "count", "higher", "kunserve_ttft_p50_s on agentic-prefix"},
	{"kvcache.cow_copies", "count", "lower", "sim_tok_per_s on agentic-prefix"},
	{"kvcache.evictions", "count", "lower", "kunserve_ttft_p50_s on agentic-prefix"},
	{"core.drops", "count", "lower", onTail},
	{"core.restores", "count", "lower", onTail},
	{"core.reconfig_s", "s", "lower", onTail},
	{"core.freed_gb", "GB", "higher", onTail},
	{"pipeline.bubble_ratio", "frac", "lower", onTail},
	{"network.gb_sent", "GB", "lower", onTail},
	{"network.busy_s", "s", "lower", onTail},
	{"runtime.alloc_mb_per_mtok", "MB/Mtok", "lower", "sim_tok_per_cpu_s on burst-drop"},
	{"runtime.gc_cycles", "count", "lower", "sim_tok_per_cpu_s on burst-drop"},
	{"micro.sim.event_ns", "ns", "lower", movesOf("sim")},
	{"micro.kvcache.append_ns", "ns", "lower", movesOf("kvcache")},
	{"micro.kvcache.cached_seq_ns", "ns", "lower", "sim_tok_per_s on agentic-prefix"},
	{"micro.costmodel.batch_ns", "ns", "lower", movesOf("costmodel")},
	{"micro.metrics.observe_ns", "ns", "lower", movesOf("metrics")},
	{"micro.lookahead.form_ns", "ns", "lower", movesOf("lookahead")},
}...)

const (
	onFleet = "sim_tok_per_s on fleet-diurnal"
	onBurst = "sim_tok_per_s on burst-drop"
	onBoth  = "sim_tok_per_s on burst-drop and fleet-diurnal"
	onTail  = "kunserve_ttft_p99_s, kunserve_tpot_p99_s and ttft_p99_gain_x on burst-drop and fleet-diurnal"
)

// cpuMoves maps each CPU bucket to the end-to-end metric it should move:
// per-token engine work shows at fleet width, policy code under burst
// pressure, and GC in CPU time.
var cpuMoves = map[string]string{
	"engine": onFleet, "kvcache": onFleet, "request": onFleet, "batching": onFleet,
	"gpu": onFleet, "sim": onFleet, "cluster": onFleet, "sched": onFleet,
	"lookahead": onBurst, "core": onBurst, "baselines": onBurst, "network": onBurst,
	"gc":       "sim_tok_per_cpu_s on burst-drop",
	"workload": "setup_s",
}

// movesOf returns what a layer's CPU share and microbenchmark should move.
func movesOf(layer string) string {
	if m, ok := cpuMoves[layer]; ok {
		return m
	}
	return onBoth
}

func cpuMetrics() []metricDef {
	out := make([]metricDef, 0, len(layers))
	for _, l := range layers {
		out = append(out, metricDef{"cpu." + l, "ms/Mtok", "lower", movesOf(l)})
	}
	return out
}

func cellSpanMetrics() []metricDef {
	out := make([]metricDef, 0, len(allSystems))
	for _, s := range allSystems {
		moves := onBurst
		if s.slug == vllmDP.slug || s.slug == kunServe.slug {
			moves = onBoth
		}
		out = append(out, metricDef{"span.cell." + s.slug + "_s", "s", "lower", moves})
	}
	return out
}

// perLayerResult assembles the traced run's metrics. CPU attribution and
// spans come from the traced measurement; host time per event, allocation
// and GC from the untraced baseline; counts from the first pass, which is
// identical in both.
func perLayerResult(w io.Writer, wl *benchWorkload, base, m *measurement,
	samples []profileSample, spans *spanLog, micro map[string]float64) result {
	ok := checks(w, m) && checks(w, base)
	res := result{Correct: ok, Attempted: len(base.all) + len(m.all),
		Failed: base.failed + m.failed, Metrics: map[string]metricValue{}}
	vals := map[string]float64{}

	byLayer, total := bucketProfile(samples)
	mtok := float64(m.tokens) / 1e6
	for _, l := range layers {
		vals["cpu."+l] = float64(byLayer[l]) / 1e6 / mtok
	}
	if total > 0 {
		vals["trace.attributed_frac"] = 1 - float64(byLayer["other"])/float64(total)
	}
	vals["trace_overhead_frac"] = 1 - m.tokPerSec()/base.tokPerSec()

	vals["span.trace_gen_s"] = spans.meanSeconds("trace_gen")
	vals["span.summarize_s"] = spans.meanSeconds("summarize")
	for _, s := range allSystems {
		vals["span.cell."+s.slug+"_s"] = spans.meanSeconds("cell." + s.slug)
	}

	var events, rounds int64
	var hits, misses uint64
	var skipped, drops, restores int
	var reconfig, freed, netBytes, netBusy, bubble float64
	var prefill, saved, lookups, cow, evictions int64
	var pipelined int
	for _, c := range base.first {
		if !c.ok() {
			continue
		}
		events += int64(c.events)
		rounds += c.rounds
		hits += c.planHits
		misses += c.planMisses
		skipped += c.monitorSkipped
		netBytes += float64(c.netBytes)
		netBusy += c.netBusySec
		if pc := c.summary.PrefixCache; pc != nil {
			prefill += pc.PrefillTokens
			saved += pc.PrefillTokensSaved
			lookups += pc.Lookups
			cow += pc.CoWCopies
			evictions += pc.Evictions
		}
		if c.summary.BubbleRatio > 0 {
			pipelined++
			bubble += c.summary.BubbleRatio
		}
		for _, e := range c.summary.Events {
			reconfig += e.End.Sub(e.Start).Seconds()
			switch e.Kind {
			case "drop":
				drops++
				freed += float64(e.FreedBytes) / 1e9
			case "restore":
				restores++
			}
		}
	}
	vals["sim.events"] = float64(events)
	if events > 0 {
		vals["sim.host_ns_per_event"] = base.serveSec * 1e9 / float64(events)
	}
	vals["engine.rounds"] = float64(rounds)
	if hits+misses > 0 {
		vals["engine.plan_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	vals["cluster.monitor_skipped"] = float64(skipped)
	if prefill > 0 {
		vals["kvcache.prefix_hit_rate"] = float64(saved) / float64(prefill)
	}
	vals["kvcache.prefix_lookups"] = float64(lookups)
	vals["kvcache.cow_copies"] = float64(cow)
	vals["kvcache.evictions"] = float64(evictions)
	vals["core.drops"] = float64(drops)
	vals["core.restores"] = float64(restores)
	vals["core.reconfig_s"] = reconfig
	vals["core.freed_gb"] = freed
	if pipelined > 0 {
		vals["pipeline.bubble_ratio"] = bubble / float64(pipelined)
	}
	vals["network.gb_sent"] = netBytes / 1e9
	vals["network.busy_s"] = netBusy
	vals["runtime.alloc_mb_per_mtok"] = float64(base.allocBytes) / 1e6 / (float64(base.tokens) / 1e6)
	vals["runtime.gc_cycles"] = float64(base.gcCycles)
	for k, v := range micro {
		vals[k] = v
	}

	fmt.Fprintf(w, "%s traced: %d cells in %.1fs, %d profile samples\n", wl.name, len(m.all), m.wallSec, len(samples))
	for _, d := range perLayer {
		v := vals[d.name]
		fmt.Fprintf(w, "  %-30s %14.6g %-8s moves %s\n", d.name, v, d.unit, d.moves)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res
}
