package experiments

import (
	"io"
	"reflect"
	"testing"

	"kunserve/internal/runner"
	"kunserve/internal/sim"
)

func TestScaleLadder(t *testing.T) {
	cases := []struct {
		target int
		want   []int
	}{
		{512, []int{128, 256, 512}},
		{8, []int{2, 4, 8}},
		{4, []int{2, 4}},
		{2, []int{2}},
		{1, []int{2}},
	}
	for _, c := range cases {
		if got := scaleLadder(c.target); !reflect.DeepEqual(got, c.want) {
			t.Errorf("scaleLadder(%d) = %v, want %v", c.target, got, c.want)
		}
	}
}

// Streaming mode (bounded reservoirs) must not perturb the simulation
// itself: below reservoir capacity the reservoir retains every sample, so
// the summary — counts, percentiles, series, per-class attainment — is
// identical to full record retention, less the per-request slices that
// streaming does not keep.
func TestStreamingMatchesExact(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 16 * sim.Second
	cfg.HorizonSlack = 30 * sim.Second
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c Config) runner.Summary {
		cl, err := c.Run(SysVLLMDP, tr)
		if err != nil {
			t.Fatal(err)
		}
		return runner.Summarize(cl)
	}
	exact := run(cfg)
	scfg := cfg
	scfg.Stream = true
	stream := run(scfg)
	if exact.Finished == 0 {
		t.Fatal("exact run finished nothing; test trace too small")
	}
	if len(stream.TTFTs) != 0 {
		t.Errorf("streaming run kept %d per-request TTFTs", len(stream.TTFTs))
	}
	exact.TTFTs, exact.TPOTs, exact.Outputs = nil, nil, nil
	if !reflect.DeepEqual(stream, exact) {
		t.Errorf("streaming summary differs from exact:\n%+v\n%+v", stream, exact)
	}
	// Streaming is itself deterministic: a second run is identical.
	again := run(scfg)
	if !reflect.DeepEqual(stream, again) {
		t.Error("streaming run not deterministic across repetitions")
	}
}

func TestExperimentScaleSmoke(t *testing.T) {
	cfg := Quick()
	cfg.Instances = 4
	cfg.Duration = 16 * sim.Second
	cfg.HorizonSlack = 30 * sim.Second
	r, err := ExperimentScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rungs) != 2 {
		t.Fatalf("rungs = %d, want 2 (ladder of 4)", len(r.Rungs))
	}
	for _, rung := range r.Rungs {
		if rung.Requests == 0 {
			t.Fatalf("rung %d generated no requests", rung.Instances)
		}
		if len(rung.Systems) != 2 {
			t.Fatalf("rung %d has %d systems, want 2", rung.Instances, len(rung.Systems))
		}
		for _, c := range rung.Systems {
			if c.Finished == 0 {
				t.Errorf("rung %d %s finished nothing", rung.Instances, c.System)
			}
			if c.Throughput <= 0 {
				t.Errorf("rung %d %s throughput %v", rung.Instances, c.System, c.Throughput)
			}
		}
	}
	if r.Rungs[0].Instances != 2 || r.Rungs[1].Instances != 4 {
		t.Errorf("ladder = %d,%d, want 2,4", r.Rungs[0].Instances, r.Rungs[1].Instances)
	}
	// More instances at the same per-instance load serve more requests.
	if r.Rungs[1].Requests <= r.Rungs[0].Requests {
		t.Errorf("rung sizes: %d requests at 4 instances <= %d at 2",
			r.Rungs[1].Requests, r.Rungs[0].Requests)
	}
	PrintExperimentScale(io.Discard, r)
}
