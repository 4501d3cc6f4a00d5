// Command perfbench is the simulator's benchmark. It generates a
// workload's traces from a seed, serves them one cell at a time through
// experiments.Config.RunPolicy and runner.Summarize with every tuning field
// at its default, and reports the simulator's host cost and the simulated
// results it produced.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload burst-drop --seed 1 --seconds 40 --trace 0
//
// --workload is burst-drop, fleet-diurnal, agentic-prefix or all. With
// --trace 0 the last line of standard output is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// separately traced run (CPU profile bucketed by package, harness spans,
// counters read after each cell, and layer microbenchmarks), and the spans
// and profile are written under --out. Every line before it describes the
// workload, the host, and each cell's output digest.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the untraced run's metrics. served_frac is one minus the
// failed fraction of requests, so that it is never zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sim_tok_per_s", unit: "tok/s", better: "higher"},
	{name: "sim_tok_per_cpu_s", unit: "tok/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "kunserve_ttft_p50_s", unit: "s", better: "lower"},
	{name: "kunserve_ttft_p99_s", unit: "s", better: "lower"},
	{name: "kunserve_tpot_p99_s", unit: "s", better: "lower"},
	{name: "ttft_p99_gain_x", unit: "x", better: "higher"},
	{name: "served_frac", unit: "frac", better: "higher"},
}

// metricDef describes one reported metric; moves names, for a per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct{ name, unit, better, moves string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "burst-drop, fleet-diurnal, agentic-prefix or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "host seconds to measure at least; a run always serves each of its cells once")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for spans and profiles of traced runs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds float64, traced bool, outDir string) error {
	// Cells run one at a time; never use more threads than cores, so the
	// spare core goes to the GC.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	var selected []*benchWorkload
	if name == "all" {
		selected = workloads
	} else {
		wl, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []*benchWorkload{wl}
	}
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range selected {
		res, err := runWorkload(w, wl, seed, seconds, traced, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if len(selected) == 1 {
			return printResult(w, res)
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[wl.name+"."+k] = v
		}
		if err := printResult(w, res); err != nil {
			return err
		}
	}
	return printResult(w, combined)
}

func printResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 5

// buildReplicas generates the workload's traces: the set-up a run pays
// before its first cell serves.
func buildReplicas(wl *benchWorkload, seed int64) ([]replica, error) {
	reps := make([]replica, wl.traces())
	for r := range reps {
		rep, err := wl.build(replicaSeed(seed, r))
		if err != nil {
			return nil, err
		}
		reps[r] = rep
	}
	return reps, nil
}

func runWorkload(w io.Writer, wl *benchWorkload, seed int64, seconds float64,
	traced bool, outDir string) (result, error) {
	out := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	var spans *spanLog // nil, recording nothing, unless traced
	if traced {
		spans = newSpanLog()
	}
	var reps []replica
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		end := spans.begin("trace_gen")
		t0 := time.Now()
		var err error
		reps, err = buildReplicas(wl, seed)
		setups = append(setups, time.Since(t0).Seconds())
		end()
		if err != nil {
			return result{}, err
		}
	}
	if err := describe(w, wl, seed, reps); err != nil {
		return result{}, err
	}
	if !traced {
		out("untraced run:\n")
		m := measure(wl, reps, seconds, nil, out)
		return endToEndResult(w, wl, m, median(setups)), nil
	}

	out("untraced pass (baseline for overhead and digests):\n")
	base := measure(wl, reps, 0, nil, out)
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	out("traced run:\n")
	m := measure(wl, reps, seconds, spans, out)
	pprof.StopCPUProfile()

	for i := range base.first {
		if b, t := base.first[i], m.first[i]; b.ok() != t.ok() || b.digest != t.digest {
			m.mismatches = append(m.mismatches, fmt.Sprintf(
				"%s/r%d: traced digest %016x != untraced %016x", t.system, t.replica, t.digest, b.digest))
		}
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	micro, err := microBench(wl, reps[0].trace, seed)
	if err != nil {
		return result{}, err
	}
	if err := writeArtifacts(outDir, wl.name, seed, spans, prof.Bytes()); err != nil {
		return result{}, err
	}
	return perLayerResult(w, wl, base, m, samples, spans, micro), nil
}

// describe prints the workload's input size and the platform it ran on.
func describe(w io.Writer, wl *benchWorkload, seed int64, reps []replica) error {
	var requests int
	var tokens int64
	seeds := make([]int64, len(reps))
	for i, r := range reps {
		requests += len(r.trace.Requests)
		tokens += simTokens(r.trace)
		seeds[i] = r.seed
	}
	systems := map[string]int{}
	for _, s := range wl.serves {
		systems[s.slug] = s.replicas
	}
	d := map[string]any{
		"workload":      wl.name,
		"seed":          seed,
		"replica_seeds": seeds,
		"instances":     wl.instances,
		"requests":      requests,
		"sim_tokens":    tokens,
		"systems":       systems,
		"host": map[string]any{
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu":        cpuModel(),
		},
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "workload %s\n", b)
	return err
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checks folds the run's output checks into the result and prints them.
func checks(w io.Writer, m *measurement) bool {
	for _, s := range m.mismatches {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", s)
	}
	return len(m.mismatches) == 0
}

// simulated holds the deterministic simulated results of a run's first
// pass, over the cells that completed: KunServe's latencies are means over
// its traces, and the gain divides vLLM (DP)'s mean p99 TTFT by KunServe's.
type simulated struct {
	kunP50, kunP99, kunTPOT99, gain float64
	kunOK                           bool
	failed, arrivals                int
}

func simulatedResults(m *measurement) simulated {
	var s simulated
	var p50, p99, tpot, dpP99 []float64
	for _, c := range m.first {
		s.arrivals += c.arrivals
		s.failed += c.failedRequests()
		switch {
		case !c.ok():
		case c.system == vllmDP.slug:
			dpP99 = append(dpP99, c.summary.TTFTP99)
		case c.system == kunServe.slug:
			p50 = append(p50, c.summary.TTFTP50)
			p99 = append(p99, c.summary.TTFTP99)
			tpot = append(tpot, c.summary.TPOTP99)
		}
	}
	if len(p99) > 0 {
		s.kunOK = true
		s.kunP50, s.kunP99, s.kunTPOT99 = mean(p50), mean(p99), mean(tpot)
		if len(dpP99) > 0 {
			s.gain = mean(dpP99) / s.kunP99
		}
	}
	return s
}

func endToEndResult(w io.Writer, wl *benchWorkload, m *measurement, setup float64) result {
	res := result{Correct: checks(w, m), Attempted: len(m.all), Failed: m.failed,
		Metrics: map[string]metricValue{}}
	sim := simulatedResults(m)
	vals := map[string]float64{
		"setup_s":           setup,
		"sim_tok_per_s":     m.tokPerSec(),
		"sim_tok_per_cpu_s": m.tokPerCPUSec(),
		"peak_rss_mb":       peakRSSMB(),
		"served_frac":       1 - float64(sim.failed)/float64(sim.arrivals),
	}
	if sim.kunOK {
		vals["kunserve_ttft_p50_s"] = sim.kunP50
		vals["kunserve_ttft_p99_s"] = sim.kunP99
		vals["kunserve_tpot_p99_s"] = sim.kunTPOT99
	}
	if sim.gain > 0 {
		vals["ttft_p99_gain_x"] = sim.gain
	}
	fmt.Fprintf(w, "%s: %d cells in %.1fs, %d failed; failed_frac=%.6f (%d of %d requests)\n",
		wl.name, len(m.all), m.wallSec, m.failed,
		float64(sim.failed)/float64(sim.arrivals), sim.failed, sim.arrivals)
	for _, d := range endToEnd {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-22s absent: the cells it compares failed\n", d.name)
			continue
		}
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeArtifacts writes a traced run's spans (JSON) and CPU profile.
func writeArtifacts(dir, name string, seed int64, spans *spanLog, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
