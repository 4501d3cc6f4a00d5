package cluster

import (
	"kunserve/internal/batching"
	"kunserve/internal/request"
)

// Former partitions one iteration's batch into pipeline microbatches. The
// baseline (token-count) former and KunServe's lookahead former implement
// it.
type Former interface {
	// Form splits items for a pipeline of the given stage count. For
	// stages == 1 implementations must return the batch unsplit.
	Form(items []batching.Item, stages int) [][]batching.Item
}

// TokenCountFormer is the state-of-the-art token-count-based microbatch
// formulation (Sarathi-Serve/vLLM): near-equal token counts per microbatch,
// blind to the quadratic attention cost (Figure 9 (b)).
type TokenCountFormer struct{}

// microbatchesPerStage is how many token-count microbatches fill each
// pipeline stage.
const microbatchesPerStage = 2

// Form implements Former.
func (f TokenCountFormer) Form(items []batching.Item, stages int) [][]batching.Item {
	if stages <= 1 {
		if len(items) == 0 {
			return nil
		}
		return [][]batching.Item{items}
	}
	return batching.SplitByTokenCount(items, stages*microbatchesPerStage)
}

// Policy is the overload-handling mechanism under evaluation. All five
// systems (vLLM DP/PP, InferCept, Llumnix, KunServe) share the dispatcher,
// continuous batching, kernel timing and metrics; only the Policy differs,
// mirroring the paper's calibrated baselines.
type Policy interface {
	// Name identifies the system in experiment output.
	Name() string

	// Setup partitions the cluster's instances into initial serving
	// groups (e.g. vLLM-PP pre-drops half the layers pairwise).
	Setup(c *Cluster) error

	// BeforeAdmit runs at the start of every scheduling round, before
	// FCFS admission (InferCept uses it to swap requests back in).
	BeforeAdmit(g *Group)

	// HandlePressure is invoked when g is needBlocks short of KVCache to
	// advance a request this iteration. It returns true when blocks were
	// freed immediately so the caller can retry.
	HandlePressure(g *Group, needBlocks int) bool

	// OnTick runs at every monitor interval with fresh demand data
	// (KunServe's drop/restore trigger, Llumnix's rebalancing).
	OnTick(c *Cluster)

	// Former returns the microbatch former for pipelined groups.
	Former() Former
}

// PrefillFinisher is the optional policy extension role-split clusters
// need: when a prefill-role group completes a request's prefill, the
// execution engine hands the request to the policy — which ships its KV
// to a decode group (admission-side reservation on the destination pool,
// a handoff stall while blocks are in flight) — instead of decoding
// locally. HandoffPrefill returns true when the policy took the request
// over. Groups get the engine's Handoff callback only under a policy that
// implements this interface, so SetRole refuses the Prefill role for
// policies that do not.
type PrefillFinisher interface {
	HandoffPrefill(g *Group, r *request.Request) bool
}

// BasePolicy provides no-op defaults; concrete policies embed it.
type BasePolicy struct{}

// BeforeAdmit implements Policy.
func (BasePolicy) BeforeAdmit(*Group) {}

// OnTick implements Policy.
func (BasePolicy) OnTick(*Cluster) {}

// Former implements Policy.
func (BasePolicy) Former() Former { return TokenCountFormer{} }

// SetupDP gives every instance its own full-copy group: the default
// data-parallel deployment all non-PP systems use.
func SetupDP(c *Cluster) error {
	for _, in := range c.Instances {
		if _, err := c.NewGroup([]int{in.ID}); err != nil {
			return err
		}
	}
	return nil
}
