package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/experiments"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// panicky serves like vLLM (DP) until memory runs short, then panics.
type panicky struct{ cluster.BasePolicy }

func (panicky) Name() string                            { return "panicky" }
func (panicky) Setup(c *cluster.Cluster) error          { return cluster.SetupDP(c) }
func (panicky) HandlePressure(*cluster.Group, int) bool { panic("pressure") }

// tinyReplica is a burst of long prompts at t=0 on one instance: enough KV
// demand to put the pool under pressure within a few rounds.
func tinyReplica() replica {
	tr := &workload.Trace{Name: "tiny"}
	for i := 0; i < 64; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID: i, Arrival: sim.Time(i) * sim.Time(sim.Millisecond), InputLen: 8000, OutputLen: 2000})
	}
	cfg := experiments.Config{Seed: 1, Instances: 1, Duration: sim.Second, HorizonSlack: 60 * sim.Second}
	return replica{seed: 1, cfg: cfg, trace: tr}
}

func TestFailedCellCountsEveryArrival(t *testing.T) {
	bad := system{slug: kunServe.slug, newPolicy: func() cluster.Policy { return panicky{} }}
	wl := &benchWorkload{name: "tiny", instances: 1, serves: []serving{{bad, 1}, {vllmDP, 1}}}
	reps := []replica{tinyReplica()}
	var log strings.Builder
	m := measure(wl, reps, 0, nil, func(f string, a ...any) { fmt.Fprintf(&log, f, a...) })

	if len(m.first) != 2 {
		t.Fatalf("served %d cells, want 2 (the run must go on after a failed cell)", len(m.first))
	}
	failed, ok := m.first[0], m.first[1]
	if failed.err == nil || !strings.Contains(failed.err.Error(), "pressure") {
		t.Fatalf("panicking cell err = %v, want the recovered panic", failed.err)
	}
	if !ok.ok() {
		t.Fatalf("vLLM (DP) cell failed: %v", ok.err)
	}
	n := len(reps[0].trace.Requests)
	if m.failed != 1 || len(m.all) != 2 {
		t.Fatalf("%d of %d cells failed, want 1 of 2", m.failed, len(m.all))
	}
	if s := simulatedResults(m); s.failed != n+ok.summary.Unserved || s.arrivals != 2*n {
		t.Fatalf("failed requests=%d of %d, want %d of %d", s.failed, s.arrivals, n+ok.summary.Unserved, 2*n)
	}
	if m.tokens != simTokens(reps[0].trace) {
		t.Fatalf("tokens=%d counts the failed cell", m.tokens)
	}
	if strings.Count(log.String(), "\n") != 2 || !strings.Contains(log.String(), "FAILED: ") {
		t.Fatalf("progress log:\n%s", log.String())
	}
	if strings.Contains(log.String(), "goroutine") {
		t.Fatalf("failure line carries more than the error's first line:\n%s", log.String())
	}

	var out bytes.Buffer
	res := endToEndResult(&out, wl, m, 0.1)
	for _, k := range []string{"kunserve_ttft_p50_s", "kunserve_ttft_p99_s", "kunserve_tpot_p99_s", "ttft_p99_gain_x"} {
		if _, present := res.Metrics[k]; present {
			t.Errorf("%s reported from a failed KunServe cell", k)
		}
	}
	if got := res.Metrics["served_frac"].Value; got >= 0.5+1e-9 {
		t.Errorf("served_frac = %v, want at most 0.5", got)
	}
	if !res.Correct {
		t.Errorf("a failed cell is a failure, not a wrong output:\n%s", out.String())
	}
}

func TestDigestRepeatsAcrossPasses(t *testing.T) {
	wl := &benchWorkload{name: "tiny", instances: 1, serves: []serving{{vllmDP, 1}}}
	m := measure(wl, []replica{tinyReplica()}, 0.2, nil, func(string, ...any) {})
	if len(m.all) < 2 {
		t.Fatalf("served %d cells, want repeats", len(m.all))
	}
	if len(m.mismatches) > 0 {
		t.Fatalf("mismatches: %v", m.mismatches)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "kunserve/internal/kvcache.(*Seq).Append", "kunserve/internal/cluster/engine.(*Engine).round"}, "kvcache"},
		{[]string{"kunserve/internal/cluster/engine.(*Engine).round.func1", "kunserve/internal/sim.(*Simulation).Step"}, "engine"},
		{[]string{"kunserve/internal/core/lookahead.(*Former).split", "kunserve/internal/core.(*Policy).OnTick"}, "lookahead"},
		{[]string{"kunserve/internal/core/planner.Plan", "kunserve/internal/cluster.(*Cluster).monitorTick"}, "core"},
		{[]string{"kunserve/internal/workload/arrival.(*Diurnal).Next", "main.buildFleetDiurnal"}, "workload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.mallocgc", "kunserve/internal/request.New"}, "gc"},
		{[]string{"runtime.mallocgc", "kunserve/internal/request.New"}, "request"},
		{[]string{"encoding/json.Marshal", "main.summaryDigest"}, "other"},
		{[]string{"kunserve/internal/nosuchpkg.F"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseProfileBuckets decodes a small hand-encoded CPU profile: three
// functions, one of them inlined into another, and three samples.
func TestParseProfileBuckets(t *testing.T) {
	var p pb
	p.str(6, "")                                                 // string 0
	p.str(6, "samples")                                          // 1
	p.str(6, "count")                                            // 2
	p.str(6, "cpu")                                              // 3
	p.str(6, "nanoseconds")                                      // 4
	p.str(6, "kunserve/internal/kvcache.(*Seq).Append")          // 5
	p.str(6, "kunserve/internal/cluster/engine.(*Engine).round") // 6
	p.str(6, "runtime.gcBgMarkWorker")                           // 7
	p.msg(1, valueType(1, 2))
	p.msg(1, valueType(3, 4))
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7} {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		p.msg(5, f)
	}
	// Location 1 holds Append inlined into round; location 2 the GC worker.
	var l1 pb
	l1.varint(1, 1)
	l1.msg(4, line(1))
	l1.msg(4, line(2))
	p.msg(4, l1)
	var l2 pb
	l2.varint(1, 2)
	l2.msg(4, line(3))
	p.msg(4, l2)
	p.msg(2, sample([]uint64{1}, 1, 30e6))
	p.msg(2, sample([]uint64{1}, 1, 10e6))
	p.msg(2, sample([]uint64{2}, 1, 20e6))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(samples))
	}
	if s := samples[0].stack; len(s) != 2 || s[0] != "kunserve/internal/kvcache.(*Seq).Append" {
		t.Fatalf("inlined stack = %q, want Append then round", s)
	}
	byLayer, total := bucketProfile(samples)
	if total != 60e6 || byLayer["kvcache"] != 40e6 || byLayer["gc"] != 20e6 {
		t.Fatalf("buckets %v total %d", byLayer, total)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("parsed garbage")
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }
func (p *pb) varint(num int, v uint64) {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
}
func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}
func (p *pb) str(num int, s string) { p.bytes(num, []byte(s)) }
func (p *pb) msg(num int, m pb)     { p.bytes(num, m.b) }

func valueType(typ, unit uint64) pb {
	var m pb
	m.varint(1, typ)
	m.varint(2, unit)
	return m
}

func line(fn uint64) pb {
	var m pb
	m.varint(1, fn)
	return m
}

// sample encodes locations packed and values unpacked, covering both
// repeated-field encodings.
func sample(locs []uint64, count, nanos uint64) pb {
	var packed []byte
	for _, l := range locs {
		packed = binary.AppendUvarint(packed, l)
	}
	var m pb
	m.bytes(1, packed)
	m.varint(2, count)
	m.varint(2, nanos)
	return m
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's metric and
// workload lists in step with what the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
