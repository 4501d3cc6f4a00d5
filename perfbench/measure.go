package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
)

// cellResult is one served (replica, system) cell. A failed cell has err
// set and carries no summary: every arrival of it counts as failed.
type cellResult struct {
	system   string
	replica  int
	arrivals int
	tokens   int64
	err      error
	summary  runner.Summary
	digest   uint64

	serveSec, summarizeSec float64
	cpuSec                 float64 // process CPU time, GC threads included

	// Deterministic counts read through public accessors after the run.
	events         uint64
	rounds         int64
	planHits       uint64
	planMisses     uint64
	monitorSkipped int
	netBytes       int64
	netBusySec     float64
}

func (c *cellResult) ok() bool { return c.err == nil }

// failedRequests is what the cell contributes to the failure count: every
// arrival when the cell errored, else the requests unserved at the horizon.
func (c *cellResult) failedRequests() int {
	if !c.ok() {
		return c.arrivals
	}
	return c.summary.Unserved
}

// serveCell serves one replica's trace under one system through the public
// entry points (Config.RunPolicy, then runner.Summarize) and reads the
// cluster's counters. Panics are recovered into the result's error.
func serveCell(rep replica, s system, r int, sp *spanLog) (res cellResult) {
	res = cellResult{system: s.slug, replica: r, arrivals: len(rep.trace.Requests),
		tokens: simTokens(rep.trace)}
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("perfbench: cell %s/%d panicked: %v", s.slug, r, p)
		}
	}()
	cpu0 := cpuSeconds()
	defer func() { res.cpuSec = cpuSeconds() - cpu0 }()
	end := sp.begin("serve." + s.slug)
	t0 := time.Now()
	cl, err := rep.cfg.RunPolicy(s.newPolicy(), rep.trace)
	res.serveSec = time.Since(t0).Seconds()
	end()
	if err != nil {
		res.err = err
		return res
	}
	end = sp.begin("summarize")
	t0 = time.Now()
	res.summary = runner.Summarize(cl)
	res.summarizeSec = time.Since(t0).Seconds()
	end()
	res.digest = summaryDigest(res.summary)
	readCounters(&res, cl)
	return res
}

// summaryDigest hashes every deterministic field of a summary: its JSON
// form, which omits the per-record latency slices but keeps every
// percentile, series, reconfiguration event and cache counter.
func summaryDigest(s runner.Summary) uint64 {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Summary holds only plain numbers and strings
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func readCounters(res *cellResult, cl *cluster.Cluster) {
	res.events = cl.Sim.Processed
	res.monitorSkipped = cl.MonitorSkipped()
	for _, g := range cl.Groups() {
		res.rounds += int64(g.RoundsRun())
		h, m := g.PlanStats()
		res.planHits += h
		res.planMisses += m
	}
	for i := 0; i < cl.Fabric.Size(); i++ {
		l := cl.Fabric.Egress(i)
		res.netBytes += l.BytesSent()
		res.netBusySec += l.BusyTime().Seconds()
	}
}

// firstLine returns the first line of an error message (panics carry a
// stack trace after it).
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// measurement is one timed sequence of cells. The first pass serves every
// (replica, system) cell once; later passes repeat cells in the same order
// until the time budget is spent, and must reproduce the first pass's
// digests exactly.
type measurement struct {
	first []cellResult // pass 0, replica-major
	all   []cellTime   // every cell served, all passes

	tokens     int64   // simulated tokens of completed cells
	failed     int     // cells that errored or panicked
	serveSec   float64 // host seconds serving, all cells
	allocBytes uint64
	gcCycles   uint32
	mismatches []string
	wallSec    float64
}

// cellTime is one served cell's host cost.
type cellTime struct {
	system          string
	ok              bool
	tokens          int64
	wallSec, cpuSec float64
}

// measure serves the workload's replicas until at least one full pass is
// done and seconds have elapsed. out receives one progress line per
// pass-0 cell; sp (may be nil) records spans.
func measure(w *benchWorkload, reps []replica, seconds float64, sp *spanLog,
	out func(format string, args ...any)) *measurement {
	m := &measurement{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	plan := w.cells()
	n := len(plan)
	for i := 0; ; i++ {
		if i >= n && time.Since(start).Seconds() >= seconds {
			break
		}
		r, s := plan[i%n].replica, plan[i%n].system
		// Start every cell from a collected heap, so a cell is not charged
		// for collecting its predecessor's garbage.
		runtime.GC()
		end := sp.begin("cell." + s.slug)
		c := serveCell(reps[r], s, r, sp)
		end()
		m.add(&c)
		if i < n {
			if !c.ok() {
				out("  %-10s r%d seed=%d FAILED: %s\n", c.system, r, reps[r].seed, firstLine(c.err))
			} else {
				out("  %-10s r%d seed=%d %6.2fs digest=%016x finished=%d unserved=%d events=%d\n",
					c.system, r, reps[r].seed, c.serveSec+c.summarizeSec, c.digest,
					c.summary.Finished, c.summary.Unserved, c.events)
			}
			m.first = append(m.first, c)
		} else if ref := m.first[i%n]; c.ok() != ref.ok() || c.digest != ref.digest {
			m.mismatches = append(m.mismatches, fmt.Sprintf(
				"%s/r%d: repeat digest %016x != first %016x", c.system, r, c.digest, ref.digest))
		}
	}
	m.wallSec = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	// The collections forced between cells are the harness's, not the
	// program's.
	m.gcCycles = (ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC)
	return m
}

func (m *measurement) add(c *cellResult) {
	wall := c.serveSec + c.summarizeSec
	m.all = append(m.all, cellTime{system: c.system, ok: c.ok(), tokens: c.tokens,
		wallSec: wall, cpuSec: c.cpuSec})
	m.serveSec += wall
	if !c.ok() {
		m.failed++
		return
	}
	m.tokens += c.tokens
	// Conservation: every arrival either finished or is still outstanding
	// at the horizon.
	if got := c.summary.Finished + c.summary.Unserved; got != c.arrivals {
		m.mismatches = append(m.mismatches, fmt.Sprintf(
			"%s/r%d: finished+unserved=%d != arrivals=%d", c.system, c.replica, got, c.arrivals))
	}
}

// tokPerSec is simulated tokens of completed cells per host second of
// serving; a failed cell's time counts, its tokens do not.
func (m *measurement) tokPerSec() float64 {
	return m.rate(func(c cellTime) float64 { return c.wallSec })
}

// tokPerCPUSec is the same per host CPU second (user plus sys, all threads).
func (m *measurement) tokPerCPUSec() float64 {
	return m.rate(func(c cellTime) float64 { return c.cpuSec })
}

// rate divides the completed cells' tokens by their host cost, taking each
// system's cost per token at the lower quartile over its completed cells.
// Other tenants of the host only ever add time, so the lower quartile
// estimates the uncontended cost without resting on the single luckiest
// cell. Failed cells add their cost as measured.
func (m *measurement) rate(cost func(cellTime) float64) float64 {
	perTok := map[string][]float64{}
	tokens := map[string]int64{}
	var failedCost float64
	for _, c := range m.all {
		if !c.ok {
			failedCost += cost(c)
			continue
		}
		perTok[c.system] = append(perTok[c.system], cost(c)/float64(c.tokens))
		tokens[c.system] += c.tokens
	}
	total := failedCost
	for sys, xs := range perTok {
		total += lowerQuartile(xs) * float64(tokens[sys])
	}
	return float64(m.tokens) / total
}

// lowerQuartile interpolates the 25th percentile of xs.
func lowerQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := 0.25 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's resident set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
