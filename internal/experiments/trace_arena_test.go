package experiments

import (
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/runner"
)

// TestSharedTraceImmutable is the shared-trace arena's contract test: one
// arena trace served by every system the simulator implements — the five
// matrix systems plus the disaggregated baseline — comes back byte-identical.
// If any engine, policy, or collector wrote through the trace, whichever
// cell executed first would leak state into every later cell sharing the
// arena slot, so this is load-bearing for run-to-run determinism, not just
// memory hygiene.
func TestSharedTraceImmutable(t *testing.T) {
	runner.ResetTraceArena()
	t.Cleanup(runner.ResetTraceArena)

	cfg := Quick().withDefaults()
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if n := runner.TraceArenaLen(); n != 1 {
		t.Fatalf("arena holds %d traces, want 1", n)
	}
	// A second build with the same config must return the same object, not
	// an equal copy.
	again, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Fatal("BuildTrace returned a fresh trace for an arena-cached key")
	}

	before := tr.Fingerprint()
	set := runner.NewSet(cfg.Parallel)
	for _, s := range AllSystems() {
		sys := s
		set.Add(runner.Cell{
			Key:       string(sys),
			Cluster:   cfg.clusterConfig(tr),
			NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
			Trace:     tr,
			Horizon:   tr.Duration().Add(cfg.HorizonSlack),
		})
	}
	// The disaggregated baseline runs the same trace through the
	// prefill/decode role split — the sixth distinct serving path.
	set.Add(runner.Cell{
		Key:     "Disagg",
		Cluster: cfg.clusterConfig(tr),
		NewPolicy: func() cluster.Policy {
			return baselines.NewDisagg(1, cfg.Instances-1)
		},
		Trace:   tr,
		Horizon: tr.Duration().Add(cfg.HorizonSlack),
	})
	if _, err := set.Execute(); err != nil {
		t.Fatal(err)
	}

	if after := tr.Fingerprint(); after != before {
		t.Fatalf("shared trace mutated: fingerprint %#x -> %#x", before, after)
	}
	if err := runner.CheckTraceArena(); err != nil {
		t.Fatal(err)
	}
}
