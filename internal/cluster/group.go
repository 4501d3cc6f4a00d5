package cluster

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/cluster/engine"
	"kunserve/internal/instance"
	"kunserve/internal/kvcache"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
)

// Group is the unit of execution: one or more instances that together hold
// a complete copy of the model. A singleton group executes normally; a
// multi-instance group (after a parameter drop, or the static PP baseline)
// executes with pipeline parallelism.
//
// Scheduling rounds — admission in the wait-queue discipline's order,
// iteration forming with chunked prefill, KVCache reservation (invoking
// the policy under memory pressure), execution, token bookkeeping — are
// run by the group's role-aware execution engine (internal/cluster/
// engine). The group's Role selects which stages run: Collocated (the
// default) serves the full lifecycle, Prefill serves prompts and hands
// completed prefills off, Decode serves generation over handed-off KV.
type Group struct {
	ID int

	cl        *Cluster
	instances []*instance.Instance
	pipe      *pipeline.Engine
	pool      *kvcache.Pool
	exec      *engine.Engine

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
	g.pool = kvcache.NewPool(capTokens/cl.BlockTokens, cl.BlockTokens)
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
	g.exec = engine.New(engine.Options{
		GroupID:       id,
		Sim:           cl.Sim,
		Pool:          g.pool,
		Pipeline:      g.pipe,
		Queue:         cl.newDiscipline(),
		Collector:     cl.Collector,
		Budget:        cl.Budget,
		Depth:         len(insts),
		PrefixCaching: cl.PrefixCaching,
		RetryDelay:    cl.retryRoundDelay,
		Tracer:        cl.tracer,
		Req:           cl.reqTrack,
		Callbacks: engine.Callbacks{
			BeforeAdmit:    func() { cl.Policy.BeforeAdmit(g) },
			HandlePressure: func(need int) bool { return cl.Policy.HandlePressure(g, need) },
			Form: func(items []batching.Item, stages int) [][]batching.Item {
				return cl.Policy.Former().Form(items, stages)
			},
			Finished: cl.requestFinished,
			Handoff: func(r *request.Request) bool {
				pf, ok := cl.Policy.(PrefillFinisher)
				if !ok {
					return false
				}
				return pf.HandoffPrefill(g, r)
			},
			LoadChanged:       func() { cl.noteLoadChanged(g) },
			MembershipChanged: cl.invalidateActive,
		},
	})
	return g, nil
}

// Cluster returns the owning cluster.
func (g *Group) Cluster() *Cluster { return g.cl }

// Instances returns the member instances in stage order.
func (g *Group) Instances() []*instance.Instance { return g.instances }

// Role returns the group's execution role (Collocated unless the policy
// reassigned it during Setup).
func (g *Group) Role() engine.Role { return g.exec.Role() }

// SetRole assigns the group's execution role. It must be called during
// policy Setup, before any request reaches the group, and a Prefill role
// requires the cluster's policy to implement PrefillFinisher (something
// has to take the completed prefills).
func (g *Group) SetRole(role engine.Role) error {
	if role == engine.RolePrefill {
		if _, ok := g.cl.Policy.(PrefillFinisher); !ok {
			return fmt.Errorf("cluster: policy %s cannot serve a prefill-role group (no PrefillFinisher)",
				g.cl.Policy.Name())
		}
	}
	return g.exec.SetRole(role)
}

// Running returns a copy of the running set (policies iterate it while
// mutating group state).
func (g *Group) Running() []*request.Request { return g.exec.Running() }

// EachRunning visits the running set without copying it; fn must not
// mutate the group's admission state (see engine.Engine.EachRunning).
func (g *Group) EachRunning(fn func(*request.Request)) { g.exec.EachRunning(fn) }

// WaitingRequests returns a copy of the wait queue in dispatch order.
func (g *Group) WaitingRequests() []*request.Request { return g.exec.Queue().Items() }

// Queue returns the group's wait-queue discipline.
func (g *Group) Queue() sched.Discipline { return g.exec.Queue() }

// IsStalled reports whether a request is currently stalled in this group.
func (g *Group) IsStalled(r *request.Request) bool { return g.exec.IsStalled(r) }

// Stages returns the pipeline depth (1 = plain execution).
func (g *Group) Stages() int { return len(g.instances) }

// Pool returns the group's KV block pool.
func (g *Group) Pool() *kvcache.Pool { return g.pool }

// Engine exposes the pipeline engine (bubble metrics). The role-aware
// execution engine itself stays private: every legal mutation of it goes
// through Group methods (SetRole in particular validates that a prefill
// role has a policy to hand completed prefills to).
func (g *Group) Engine() *pipeline.Engine { return g.pipe }

// Closed reports whether the group has been dissolved.
func (g *Group) Closed() bool { return g.exec.Closed() }

// Executing reports whether a round is in flight.
func (g *Group) Executing() bool { return g.exec.Executing() }

// QueueLen returns the number of waiting requests.
func (g *Group) QueueLen() int { return g.exec.QueueLen() }

// RunningLen returns the number of admitted requests.
func (g *Group) RunningLen() int { return g.exec.RunningLen() }

// RoundsRun returns completed scheduling rounds (diagnostics only).
func (g *Group) RoundsRun() int { return g.exec.RoundsRun() }

// PlanStats always reports zero hits and misses: rounds are no longer
// planned speculatively. It remains for callers that still report the
// plan hit rate (perfbench), which reads as absent when both are zero.
func (g *Group) PlanStats() (hits, misses uint64) { return 0, 0 }

// Enqueue adds a request to the wait queue under the group's discipline.
func (g *Group) Enqueue(r *request.Request) { g.exec.Enqueue(r) }

// Wake starts a scheduling round if the group is idle.
func (g *Group) Wake() { g.exec.Wake() }

// Stall excludes a running request from scheduling (swap, migration,
// handoff, or KVCache exchange in flight) after moving it to the given
// state.
func (g *Group) Stall(r *request.Request, st request.State) { g.exec.Stall(r, st) }

// Unstall resumes a stalled request.
func (g *Group) Unstall(r *request.Request) { g.exec.Unstall(r) }

// StalledCount returns how many running requests are stalled.
func (g *Group) StalledCount() int { return g.exec.StalledCount() }

// MarkDecodeReady stamps a handed-off request as decode-ready so its
// first decode advance reports the decode-queue stage wait.
func (g *Group) MarkDecodeReady(r *request.Request) { g.exec.MarkDecodeReady(r) }

// Victim returns the youngest running, unstalled request whose KV was not
// reserved in the current round — the standard preemption victim — or nil.
func (g *Group) Victim() *request.Request { return g.exec.Victim() }

// PreemptRecompute drops a running request's KVCache and re-queues it for
// recomputation (the vLLM default and everyone's last resort).
func (g *Group) PreemptRecompute(r *request.Request) { g.exec.PreemptRecompute(r) }

// PreemptDetach is PreemptRecompute without the local re-queue: the caller
// chooses where the victim re-prefills (role-split policies reroute decode
// victims to a prefill group).
func (g *Group) PreemptDetach(r *request.Request) { g.exec.PreemptDetach(r) }

// RemoveRequest detaches a running request from the group without freeing
// its sequence (migration and handoff hand both to the destination).
func (g *Group) RemoveRequest(r *request.Request) { g.exec.RemoveRequest(r) }

// AdoptRunning adds an already-admitted request (with a live Seq in this
// group's pool) to the running set.
func (g *Group) AdoptRunning(r *request.Request) { g.exec.AdoptRunning(r) }

// UsedTokens returns tokens of KV currently allocated.
func (g *Group) UsedTokens() int {
	return g.pool.UsedBlocks() * g.pool.BlockTokens()
}

// CapacityTokens returns the pool capacity in tokens.
func (g *Group) CapacityTokens() int {
	return g.pool.TotalBlocks() * g.pool.BlockTokens()
}

// DemandTokens estimates the group's memory demand (§2.2 accounting).
func (g *Group) DemandTokens() int { return g.exec.DemandTokens() }

// Drain freezes the group after the in-flight round and calls then once
// idle. Used by reconfiguration (merge on drop, split on restore).
func (g *Group) Drain(then func()) { g.exec.Drain(then) }

// ExtractRequests empties the group's request sets for transplantation
// into a successor group, marking the group closed. Stalled requests are
// returned within running; callers must preserve their stall bookkeeping.
func (g *Group) ExtractRequests() (running, waiting []*request.Request, stalled map[int]*request.Request) {
	return g.exec.ExtractRequests()
}
