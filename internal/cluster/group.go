package cluster

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/cluster/engine"
	"kunserve/internal/instance"
	"kunserve/internal/kvcache"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
)

// Group is the unit of execution: one or more instances that together hold
// a complete copy of the model. A singleton group executes normally; a
// multi-instance group (after a parameter drop, or the static PP baseline)
// executes with pipeline parallelism.
//
// A Group is its role-aware execution engine (internal/cluster/engine,
// embedded): the engine's request-set methods — Enqueue, Stall, Victim,
// PreemptRecompute, SetRole, Drain and the rest — are the group's. The
// group adds what the engine does not own: its member instances, its KV
// block pool and its pipeline. The Role selects what each scheduling round
// runs: Collocated (the default) serves the full lifecycle, Prefill serves
// prompts and hands completed prefills off, Decode serves generation over
// handed-off KV.
type Group struct {
	ID int

	cl        *Cluster
	instances []*instance.Instance
	pipe      *pipeline.Engine
	pool      *kvcache.Pool
	*engine.Engine

	// idxDirty marks the group as queued on the cluster's dirty list for
	// a demand fold and index key refresh (set by the first load/capacity
	// change since the last sync, cleared by the flush). inActive mirrors
	// membership in the cluster's persistent active candidate set, and
	// lastDemandTokens is the group's contribution currently folded into
	// the cluster demand total (both maintained by the cluster's sync).
	idxDirty         bool
	inActive         bool
	lastDemandTokens int
}

// newGroup wires a group over instances that must already hold the layer
// split the caller intends (full copies for singletons, complementary
// shards for pipelines).
func newGroup(id int, cl *Cluster, insts []*instance.Instance) (*Group, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("cluster: empty group")
	}
	totalLayers := 0
	for _, in := range insts {
		if in.LayersHeld() <= 0 {
			return nil, fmt.Errorf("cluster: instance %d holds no layers", in.ID)
		}
		totalLayers += in.LayersHeld()
	}
	m := insts[0].Model
	if totalLayers != m.Layers {
		return nil, fmt.Errorf("cluster: group layers %d != model layers %d",
			totalLayers, m.Layers)
	}
	g := &Group{
		ID:        id,
		cl:        cl,
		instances: insts,
	}
	// Token capacity is bounded by the tightest stage: each stage holds
	// its layers' share of every token's KV.
	capTokens := -1
	for _, in := range insts {
		c := in.KVTokenCapacity(in.LayersHeld())
		if capTokens < 0 || c < capTokens {
			capTokens = c
		}
	}
	g.pool = kvcache.NewPool(capTokens/blockTokens, blockTokens)
	// Reconfiguration resizes live pools (a drop grows the merged group's
	// pool, a restore shrinks it back); capacity feeds the least-loaded
	// routing key, so resizes queue an index refresh like demand deltas do.
	g.pool.SetResizeHook(func() { cl.markDirty(g) })
	if cl.PrefixCaching {
		g.pool.EnableSharing(cl.cacheEvict)
	}
	if cl.tracer != nil {
		g.pool.SetTracer(cl.tracer, cl.Sim.Now, id)
	}

	stages := make([]*pipeline.Stage, len(insts))
	for i, in := range insts {
		stages[i] = &pipeline.Stage{
			InstanceID: in.ID,
			Timer:      in.Timer(),
			Egress:     cl.Fabric.Egress(in.ID),
		}
	}
	g.pipe = pipeline.New(cl.Sim, stages, int64(m.HiddenDim)*m.BytesPerParam)
	cb := engine.Callbacks{
		BeforeAdmit:    func() { cl.Policy.BeforeAdmit(g) },
		HandlePressure: func(need int) bool { return cl.Policy.HandlePressure(g, need) },
		Form: func(items []batching.Item, stages int) [][]batching.Item {
			return cl.Policy.Former().Form(items, stages)
		},
		Finished:          cl.requestFinished,
		LoadChanged:       func() { cl.noteLoadChanged(g) },
		MembershipChanged: cl.invalidateActive,
	}
	// Only a policy that takes completed prefills over can serve a
	// prefill-role group; without Handoff the engine refuses that role.
	if pf, ok := cl.Policy.(PrefillFinisher); ok {
		cb.Handoff = func(r *request.Request) bool { return pf.HandoffPrefill(g, r) }
	}
	g.Engine = engine.New(engine.Options{
		GroupID:       id,
		Sim:           cl.Sim,
		Pool:          g.pool,
		Pipeline:      g.pipe,
		Queue:         cl.newDiscipline(),
		Collector:     cl.Collector,
		Budget:        batching.DefaultBudget(),
		Depth:         len(insts),
		PrefixCaching: cl.PrefixCaching,
		RetryDelay:    retryRoundDelay,
		Tracer:        cl.tracer,
		Req:           cl.reqTrack,
		Callbacks:     cb,
	})
	return g, nil
}

// Cluster returns the owning cluster.
func (g *Group) Cluster() *Cluster { return g.cl }

// Instances returns the member instances in stage order.
func (g *Group) Instances() []*instance.Instance { return g.instances }

// Stages returns the pipeline depth (1 = plain execution).
func (g *Group) Stages() int { return len(g.instances) }

// Pool returns the group's KV block pool.
func (g *Group) Pool() *kvcache.Pool { return g.pool }

// Pipeline exposes the pipeline engine (bubble metrics).
func (g *Group) Pipeline() *pipeline.Engine { return g.pipe }

// PlanStats always reports zero hits and misses: rounds are no longer
// planned speculatively. It remains for callers that still report the
// plan hit rate (perfbench), which reads as absent when both are zero.
func (g *Group) PlanStats() (hits, misses uint64) { return 0, 0 }

// UsedTokens returns tokens of KV currently allocated.
func (g *Group) UsedTokens() int {
	return g.pool.UsedBlocks() * g.pool.BlockTokens()
}

// CapacityTokens returns the pool capacity in tokens.
func (g *Group) CapacityTokens() int {
	return g.pool.TotalBlocks() * g.pool.BlockTokens()
}
