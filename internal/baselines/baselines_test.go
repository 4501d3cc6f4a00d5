package baselines

import (
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func newCluster(t *testing.T, instances int, pol cluster.Policy) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Seed:      1,
		Model:     model.Qwen25_14B(),
		GPU:       gpu.A800(),
		Instances: instances,
		Policy:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func burstTrace(n int, gap float64, in, out int) *workload.Trace {
	tr := &workload.Trace{Name: "test"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID:        i,
			Arrival:   sim.FromSeconds(float64(i) * gap),
			InputLen:  in,
			OutputLen: out,
		})
	}
	return tr
}

// overloadTrace sizes requests so a single instance's pool overflows
// mid-decode.
func overloadTrace(c *cluster.Cluster, n int) *workload.Trace {
	capTokens := c.Groups()[0].CapacityTokens()
	return burstTrace(n, 0.05, capTokens/3, capTokens/12)
}

func checkHealthy(t *testing.T, c *cluster.Cluster, want int) {
	t.Helper()
	if c.Outstanding() != 0 {
		t.Fatalf("%s: outstanding = %d", c.Policy.Name(), c.Outstanding())
	}
	if got := c.Collector.TTFT.Count(); got != want {
		t.Fatalf("%s: finished = %d, want %d", c.Policy.Name(), got, want)
	}
	for _, g := range c.Groups() {
		if err := g.Pool().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if g.Pool().LiveSequences() != 0 {
			t.Errorf("%s: leaked sequences", c.Policy.Name())
		}
	}
}

func TestVLLMDPServesUnderOverload(t *testing.T) {
	c := newCluster(t, 1, VLLMDP{})
	tr := overloadTrace(c, 4)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 4)
}

func TestVLLMPPSetupShape(t *testing.T) {
	c := newCluster(t, 4, VLLMPP())
	groups := c.Groups()
	if len(groups) != 2 {
		t.Fatalf("PP groups = %d", len(groups))
	}
	for _, g := range groups {
		if g.Stages() != 2 {
			t.Fatalf("stages = %d", g.Stages())
		}
		for _, in := range g.Instances() {
			if in.HoldsFullCopy() {
				t.Error("PP instance still holds full copy")
			}
		}
	}
	// Capacity per PP pair exceeds two DP instances'.
	dp := newCluster(t, 2, VLLMDP{})
	dpCap := dp.Groups()[0].CapacityTokens() + dp.Groups()[1].CapacityTokens()
	if groups[0].CapacityTokens() <= dpCap {
		t.Error("PP pair should have more KV capacity than 2 DP instances")
	}
}

func TestVLLMPPOddInstancesRejected(t *testing.T) {
	_, err := cluster.New(cluster.Config{
		Seed: 1, Model: model.Qwen25_14B(), GPU: gpu.A800(),
		Instances: 3, Policy: VLLMPP(),
	})
	if err == nil {
		t.Fatal("odd instance count accepted")
	}
}

func TestVLLMPPServes(t *testing.T) {
	c := newCluster(t, 2, VLLMPP())
	c.Serve(burstTrace(12, 0.2, 1024, 64), sim.FromSeconds(300))
	checkHealthy(t, c, 12)
}

func TestInferCeptSwapsUnderOverload(t *testing.T) {
	p := NewInferCept()
	c := newCluster(t, 1, p)
	tr := overloadTrace(c, 4)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 4)
	if len(p.swapOutDone) != 0 || len(p.swapIn) != 0 {
		t.Error("swap bookkeeping leaked")
	}
}

// Swapped requests must spend visible time stalled: their TPOT should
// exceed vLLM-DP's for the same overloaded workload (the Figure 13
// InferCept TPOT penalty).
func TestInferCeptTPOTPenalty(t *testing.T) {
	dp := newCluster(t, 1, VLLMDP{})
	trDP := overloadTrace(dp, 5)
	dp.Serve(trDP, sim.FromSeconds(5000))

	ic := newCluster(t, 1, NewInferCept())
	trIC := overloadTrace(ic, 5)
	ic.Serve(trIC, sim.FromSeconds(5000))

	if ic.Collector.TTFT.Count() != 5 || dp.Collector.TTFT.Count() != 5 {
		t.Fatalf("finished: ic=%d dp=%d", ic.Collector.TTFT.Count(), dp.Collector.TTFT.Count())
	}
	if ic.Collector.TPOT.Percentile(100) <= 0 {
		t.Error("InferCept TPOT missing")
	}
}

func TestLlumnixMigratesToSpareInstance(t *testing.T) {
	p := NewLlumnix()
	c := newCluster(t, 2, p)
	g0 := c.Groups()[0]
	capTokens := g0.CapacityTokens()
	// All requests land on one instance initially (dispatch balances,
	// but make the first huge so pressure concentrates).
	tr := burstTrace(6, 0.02, capTokens/4, capTokens/16)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 6)
	if len(p.migrating) != 0 {
		t.Error("migration bookkeeping leaked")
	}
}

func TestLlumnixRebalanceOnTick(t *testing.T) {
	p := NewLlumnix()
	p.ImbalanceGap = 0.05
	c := newCluster(t, 2, p)
	capTokens := c.Groups()[0].CapacityTokens()
	// Load group 0 heavily then let OnTick rebalance.
	tr := burstTrace(8, 0.01, capTokens/6, capTokens/20)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 8)
}

func TestAllBaselinesOnSharedBurst(t *testing.T) {
	// Every baseline must survive the same bursty workload; this is the
	// integration gate for the end-to-end experiments.
	trace := workload.Generate(7, 20*sim.Second, workload.ScaledBurstSchedule(2, 128*sim.Second), workload.BurstGPTDataset())
	pols := []cluster.Policy{VLLMDP{}, VLLMPP(), NewInferCept(), NewLlumnix()}
	for _, pol := range pols {
		c := newCluster(t, 2, pol)
		c.Serve(trace, sim.FromSeconds(600))
		checkHealthy(t, c, len(trace.Requests))
	}
}
