// Package engine is the role-aware execution engine behind a serving
// group: it owns the group's request sets (wait queue, running, stalled)
// and runs its scheduling rounds as a stage pipeline. Each stage —
// admission, schedulable collection, iteration forming, KV reservation,
// launch — is a separate step, and the group's Role selects which stages
// run and which request states the group accepts:
//
//   - Collocated (the default) runs every stage and serves the full
//     request lifecycle, reproducing the original monolithic Group loop
//     byte-for-byte.
//   - Prefill admits new arrivals and runs prefill chunks only; a
//     completed prefill is handed to the policy (KV handoff to a decode
//     group) instead of decoding locally.
//   - Decode never admits from its queue — requests arrive pre-filled via
//     KV handoff adoption — and runs decode steps only.
//
// The engine is deliberately cluster-agnostic: everything it needs from
// the policy layer (pressure handling, microbatch forming, handoff)
// arrives through Callbacks, so the cluster package wires it without the
// engine importing it back.
package engine

import (
	"fmt"
	"slices"

	"kunserve/internal/batching"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/obs"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

// Role selects which stages of the scheduling round a group runs and
// which requests it accepts.
type Role int

const (
	// RoleCollocated serves prefill and decode interleaved on one pool —
	// the classic continuous-batching engine every collocated system uses.
	RoleCollocated Role = iota
	// RolePrefill serves prompt processing only: it admits new arrivals,
	// runs prefill chunks, and hands completed prefills off.
	RolePrefill
	// RoleDecode serves token generation only: requests are adopted with
	// their KV already resident (shipped by a handoff), never admitted
	// from the wait queue.
	RoleDecode
)

var roleNames = map[Role]string{
	RoleCollocated: "collocated",
	RolePrefill:    "prefill",
	RoleDecode:     "decode",
}

func (r Role) String() string {
	if n, ok := roleNames[r]; ok {
		return n
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// AdmitsNewArrivals reports whether the dispatcher may route new requests
// to a group of this role. Decode groups only receive work via handoff.
func (r Role) AdmitsNewArrivals() bool { return r != RoleDecode }

// RunsPrefill reports whether the role schedules prefill chunks.
func (r Role) RunsPrefill() bool { return r != RoleDecode }

// RunsDecode reports whether the role schedules decode steps.
func (r Role) RunsDecode() bool { return r != RolePrefill }

// Callbacks connect the engine to the policy layer. All fields except
// Handoff are required.
type Callbacks struct {
	// BeforeAdmit runs at the start of every scheduling round (the
	// cluster routes it to Policy.BeforeAdmit).
	BeforeAdmit func()
	// HandlePressure is invoked when the group is need blocks short of
	// KVCache; it returns true when blocks were freed immediately.
	HandlePressure func(need int) bool
	// Form splits one iteration's items into pipeline microbatches.
	Form func(items []batching.Item, stages int) [][]batching.Item
	// Finished runs after a request completes and its record is
	// collected (the cluster decrements its outstanding count and may
	// recycle the request struct — the engine holds no reference past
	// this call).
	Finished func(r *request.Request)
	// Handoff takes over a prefill-role group's completed prefill; it
	// returns true when the policy accepted the request (stalling it for
	// the KV transfer). Required for RolePrefill, ignored otherwise.
	Handoff func(r *request.Request) bool
	// LoadChanged, when set, fires on the FIRST change to the engine's
	// demand accounting (queue pushes and pops, running-set membership,
	// decode growth) since the cluster last acknowledged with
	// AckLoadNotify. The edge-triggered contract keeps the hot mutation
	// path to one local branch per delta: the cluster marks the group
	// dirty once, reads the exact DemandTokens at its next sync point,
	// and re-arms the notification — so neither the fleet demand total
	// nor the dispatch index is recomputed by scanning the fleet.
	LoadChanged func()
	// MembershipChanged, when set, fires when the engine's dispatcher
	// visibility changes — a role switch or a close — invalidating any
	// cached candidate set the cluster keeps.
	MembershipChanged func()
}

// Options assemble an engine for one group.
type Options struct {
	// GroupID labels panics and request bookkeeping.
	GroupID int
	// Sim is the owning simulation kernel.
	Sim *sim.Simulation
	// Pool is the group's KV block pool.
	Pool *kvcache.Pool
	// Pipeline executes the formed microbatches.
	Pipeline *pipeline.Engine
	// Queue is the group's wait-queue discipline.
	Queue sched.Discipline
	// Collector receives metrics observations.
	Collector *metrics.Collector
	// Budget bounds one stage's iteration batch; the engine scales it by
	// Depth the way vLLM gives every in-flight virtual engine a budget.
	Budget batching.Budget
	// Depth is the pipeline stage count (1 = plain execution).
	Depth int
	// PrefixCaching gates admission-time prefix-chain matching.
	PrefixCaching bool
	// RetryDelay is the sleep before retrying a fully pressure-blocked
	// round.
	RetryDelay sim.Duration
	// Tracer receives structured observability events; nil (the default)
	// disables tracing with zero cost on the scheduling path.
	Tracer obs.Tracer
	// Req tracks per-request lifecycle spans; nil when tracing is off
	// (its methods are nil-receiver-safe, so call sites stay unguarded).
	Req *obs.ReqTracker
	// Callbacks wire the policy layer in.
	Callbacks Callbacks
}

// Engine runs one group's scheduling rounds.
type Engine struct {
	role    Role
	groupID int

	simu  *sim.Simulation
	pool  *kvcache.Pool
	pipe  *pipeline.Engine
	queue sched.Discipline
	col   *metrics.Collector
	cb    Callbacks

	// tr/rt are nil unless tracing is enabled (Options.Tracer set).
	tr obs.Tracer
	rt *obs.ReqTracker
	// roundStart stamps the launch of the in-flight round so finishRound
	// can emit its duration slice. Only maintained while tracing.
	roundStart sim.Time

	budget        batching.Budget
	depth         int
	prefixCaching bool
	retryDelay    sim.Duration

	running []*request.Request
	// sortedRunning mirrors running in (Arrival, ID) order so runCollect
	// never sorts: membership changes (admissions, finishes, preemptions)
	// are far rarer than scheduling rounds, so keeping the order under
	// insert/remove beats re-sorting the same permutation every round.
	// Victim deliberately walks the unsorted running slice — its
	// tie-breaking depends on admission order.
	sortedRunning []*request.Request
	stalled       map[int]*request.Request

	executing  bool
	scheduling bool // guards re-entrant startRound from policy callbacks
	draining   bool
	onDrained  func()
	closed     bool

	// curStamp is the current round's reservation stamp. runReserve
	// stamps each reserved request's RoundLock with it, and Victim skips
	// requests carrying the current stamp — the map-free form of a
	// locked-this-round set (bumping the stamp clears the whole set).
	// Stamps embed the group ID in the high bits so a request migrated
	// from another engine can never carry a matching stale stamp.
	curStamp uint64

	// roundsRun counts completed scheduling rounds (diagnostics only).
	roundsRun int

	// decodeReady stamps when a handed-off request became decode-ready so
	// the first decode advance can report its decode-queue wait. Empty in
	// collocated serving.
	decodeReady map[int]sim.Time

	// queuedAt stamps when each waiting request entered this queue, so a
	// re-queued request's prefill-queue wait measures from its re-queue,
	// not its original arrival. Only maintained in the prefill role (the
	// sole consumer of the metric).
	queuedAt map[int]sim.Time

	stages []stage

	// rd is the per-round scratch state, reused across rounds: at most one
	// round is in flight per engine, and finishRound consumes rd.items
	// before the next round can start.
	rd round
	// mb1 is the persistent single-microbatch header single-stage groups
	// launch with (no Former call, no per-round slice).
	mb1 [1][]batching.Item
	// finishFn is the launch-stage completion closure, built once so a
	// round launch allocates nothing.
	finishFn func()
	// wakeFn is the persistent method-value closure for pressure-retry
	// events (one allocation at construction, none per blocked round).
	wakeFn func()

	// demandTokens holds DemandTokens' value incrementally: every queue
	// push/pop and running add/remove applies the joining or leaving
	// request's contribution, and runReserve applies the delta when a
	// decode append grows a sequence past its prompt. Least-loaded
	// dispatch reads every group's demand on every arrival; recomputing
	// by walking queue and running there is a fleet-wide population scan
	// per arrival and was the dominant cost of cluster-scale sweeps.
	// TestDemandAccountingInvariant pins it to the ground-truth walk.
	demandTokens int
	// loadNotified is the edge-trigger latch for Callbacks.LoadChanged:
	// set by the first demand delta after an AckLoadNotify, cleared by the
	// cluster once it has folded the exact DemandTokens at a sync point.
	loadNotified bool
}

// New assembles an engine in the collocated role.
func New(opts Options) *Engine {
	e := &Engine{
		role:          RoleCollocated,
		groupID:       opts.GroupID,
		simu:          opts.Sim,
		pool:          opts.Pool,
		pipe:          opts.Pipeline,
		queue:         opts.Queue,
		col:           opts.Collector,
		cb:            opts.Callbacks,
		budget:        opts.Budget,
		depth:         opts.Depth,
		prefixCaching: opts.PrefixCaching,
		retryDelay:    opts.RetryDelay,
		tr:            opts.Tracer,
		rt:            opts.Req,
		stalled:       make(map[int]*request.Request),
		curStamp:      uint64(opts.GroupID+1) << 40,
	}
	e.stages = stagesFor(e.role)
	e.finishFn = func() { e.finishRound(e.rd.items) }
	e.wakeFn = e.Wake
	return e
}

// Role returns the engine's execution role.
func (e *Engine) Role() Role { return e.role }

// SetRole switches the engine's role, re-selecting its stage pipeline.
// Only legal before any request has reached the group.
func (e *Engine) SetRole(role Role) error {
	if len(e.running) > 0 || e.queue.Len() > 0 || e.executing {
		return fmt.Errorf("engine: group %d role change with requests in flight", e.groupID)
	}
	e.role = role
	e.stages = stagesFor(role)
	if e.cb.MembershipChanged != nil {
		e.cb.MembershipChanged()
	}
	return nil
}

// stage is one step of a scheduling round. Returning false ends the round.
type stage struct {
	name string
	run  func(e *Engine, r *round) bool
}

// round carries one scheduling round's state between stages.
type round struct {
	decodes  []*request.Request
	prefills []*request.Request
	items    []batching.Item
	hadWork  bool
}

var (
	beforeAdmitStage = stage{"policy", (*Engine).runBeforeAdmit}
	admitStage       = stage{"admit", (*Engine).runAdmit}
	collectStage     = stage{"collect", (*Engine).runCollect}
	formStage        = stage{"form", (*Engine).runForm}
	reserveStage     = stage{"reserve", (*Engine).runReserve}
	launchStage      = stage{"launch", (*Engine).runLaunch}
)

// stagesFor selects the role's stage pipeline. Decode groups skip
// admission entirely: their requests arrive via handoff adoption.
func stagesFor(role Role) []stage {
	if role == RoleDecode {
		return []stage{beforeAdmitStage, collectStage, formStage, reserveStage, launchStage}
	}
	return []stage{beforeAdmitStage, admitStage, collectStage, formStage, reserveStage, launchStage}
}

// Queue returns the wait-queue discipline.
func (e *Engine) Queue() sched.Discipline { return e.queue }

// Running returns a copy of the running set (policies iterate it while
// mutating engine state).
func (e *Engine) Running() []*request.Request {
	out := make([]*request.Request, len(e.running))
	copy(out, e.running)
	return out
}

// EachRunning visits the running set in admission order without copying
// it. fn must not admit, remove, or re-queue requests — policies that
// mutate the running set while iterating use Running's copy instead.
func (e *Engine) EachRunning(fn func(r *request.Request)) {
	for _, r := range e.running {
		fn(r)
	}
}

// IsStalled reports whether a request is currently stalled here.
func (e *Engine) IsStalled(r *request.Request) bool { return e.stalled[r.ID] != nil }

// StalledCount returns how many running requests are stalled.
func (e *Engine) StalledCount() int { return len(e.stalled) }

// Closed reports whether the engine has been dissolved.
func (e *Engine) Closed() bool { return e.closed }

// Executing reports whether a round is in flight.
func (e *Engine) Executing() bool { return e.executing }

// QueueLen returns the number of waiting requests.
func (e *Engine) QueueLen() int { return e.queue.Len() }

// RunningLen returns the number of admitted requests.
func (e *Engine) RunningLen() int { return len(e.running) }

// RoundsRun returns completed scheduling rounds (diagnostics).
func (e *Engine) RoundsRun() int { return e.roundsRun }

// demandAdd is the single mutation point for demandTokens; the first delta
// since the last AckLoadNotify raises the edge-triggered LoadChanged so the
// cluster's incremental totals and the dispatch index stay in lockstep with
// the accounting. Queue-depth changes always ride along: every queue
// push/pop moves demand by the request's prompt, so one notification covers
// both signals. In the steady state (a round's burst of deltas between two
// cluster syncs) this is one predictable branch per delta, not a callback.
func (e *Engine) demandAdd(delta int) {
	e.demandTokens += delta
	if !e.loadNotified && e.cb.LoadChanged != nil {
		e.loadNotified = true
		e.cb.LoadChanged()
	}
}

// AckLoadNotify re-arms LoadChanged after the cluster has read the exact
// DemandTokens at a sync point. Pairs with the edge-triggered contract on
// Callbacks.LoadChanged.
func (e *Engine) AckLoadNotify() { e.loadNotified = false }

// Enqueue adds a request to the wait queue under the group's discipline.
func (e *Engine) Enqueue(r *request.Request) {
	r.GroupID = e.groupID
	e.demandAdd(r.PrefillTarget())
	e.stampQueued(r)
	e.queue.Push(r)
	e.traceQueued(r, "enqueue")
	e.Wake()
}

// EnqueueFront re-queues a preempted request ahead of new arrivals (FCFS
// places it literally first; ordered disciplines fold it into their order).
func (e *Engine) EnqueueFront(r *request.Request) {
	r.GroupID = e.groupID
	e.demandAdd(r.PrefillTarget())
	e.stampQueued(r)
	e.queue.PushFront(r)
	e.traceQueued(r, "requeue")
}

func (e *Engine) traceQueued(r *request.Request, name string) {
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
			Cat: obs.CatQueue, Name: name, Group: e.groupID, Track: "queue",
			Req:  r.ID,
			Args: [2]obs.Arg{{Key: "depth", Val: int64(e.queue.Len())}}})
	}
	e.rt.Transition(e.simu.Now(), r.ID, "queued", e.groupID)
}

func (e *Engine) stampQueued(r *request.Request) {
	if e.role != RolePrefill {
		return
	}
	if e.queuedAt == nil {
		e.queuedAt = make(map[int]sim.Time)
	}
	e.queuedAt[r.ID] = e.simu.Now()
}

// Wake starts a scheduling round if the group is idle.
func (e *Engine) Wake() {
	if e.executing || e.closed || e.draining {
		return
	}
	e.startRound()
}

// Stall excludes a running request from scheduling (swap, migration,
// KVCache exchange, or handoff in flight) after moving it to the given
// state.
func (e *Engine) Stall(r *request.Request, st request.State) {
	r.SetState(st)
	e.stalled[r.ID] = r
	e.rt.Transition(e.simu.Now(), r.ID, st.String(), e.groupID)
}

// Unstall resumes a stalled request.
func (e *Engine) Unstall(r *request.Request) {
	if _, ok := e.stalled[r.ID]; !ok {
		panic(fmt.Sprintf("engine: unstall of non-stalled request %d", r.ID))
	}
	delete(e.stalled, r.ID)
	r.SetState(request.StateRunning)
	if r.InPrefill() {
		e.rt.Transition(e.simu.Now(), r.ID, "prefill", e.groupID)
	} else {
		e.rt.Transition(e.simu.Now(), r.ID, "decode", e.groupID)
	}
	e.Wake()
}

// RestoreStalled re-registers a transplanted request's stall bookkeeping
// without touching its state (it already carries a stalled state).
func (e *Engine) RestoreStalled(r *request.Request) {
	e.stalled[r.ID] = r
}

// MarkDecodeReady stamps a handed-off request as decode-ready now; the
// first decode advance reports the elapsed wait as the decode-queue stage
// delay.
func (e *Engine) MarkDecodeReady(r *request.Request) {
	if e.decodeReady == nil {
		e.decodeReady = make(map[int]sim.Time)
	}
	e.decodeReady[r.ID] = e.simu.Now()
}

// Victim returns the youngest running, unstalled request whose KV was not
// reserved in the current round — the standard preemption victim — or nil.
func (e *Engine) Victim() *request.Request {
	var v *request.Request
	for _, r := range e.running {
		if r.RoundLock == e.curStamp || r.State() != request.StateRunning || r.Done() {
			continue
		}
		if v == nil || r.Arrival > v.Arrival {
			v = r
		}
	}
	return v
}

// PreemptRecompute drops a running request's KVCache and re-queues it for
// recomputation (the vLLM default and everyone's last resort). Under
// prefix caching the drop is not a void: the victim's shared-prefix blocks
// land on the pool's cached list, so its re-admission — and every other
// request with the same prefix — skips that part of the re-prefill unless
// pressure evicted the blocks in between.
func (e *Engine) PreemptRecompute(r *request.Request) {
	e.PreemptDetach(r)
	e.EnqueueFront(r)
}

// PreemptDetach is PreemptRecompute without the local re-queue: the
// victim's KVCache drops and it resets to queued, but where it re-prefills
// is the caller's choice. Role-split policies use it to reroute a decode
// pool's victim to a prefill group (decode groups run no prefill stage).
func (e *Engine) PreemptDetach(r *request.Request) {
	e.removeRunning(r)
	delete(e.decodeReady, r.ID)
	if r.Seq != nil {
		r.Seq.Free()
	}
	r.SetState(request.StatePreempted)
	r.ResetForRecompute()
	r.SetState(request.StateQueued)
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
			Cat: obs.CatCore, Name: "preempt", Group: e.groupID,
			Track: "preempt", Req: r.ID})
	}
	e.rt.Transition(e.simu.Now(), r.ID, "preempted", e.groupID)
}

// RemoveRequest detaches a running request from the engine without freeing
// its sequence (migration and handoff hand both to the destination).
func (e *Engine) RemoveRequest(r *request.Request) {
	e.removeRunning(r)
	delete(e.stalled, r.ID)
	delete(e.decodeReady, r.ID)
}

// AdoptRunning adds an already-admitted request (with a live Seq in this
// group's pool) to the running set.
func (e *Engine) AdoptRunning(r *request.Request) {
	r.GroupID = e.groupID
	e.addRunning(r)
}

// byArrivalID is runCollect's deterministic order: by arrival, then ID.
// (Arrival, ID) is a strict total order — IDs are unique.
func byArrivalID(a, b *request.Request) int {
	if a.Arrival != b.Arrival {
		if a.Arrival < b.Arrival {
			return -1
		}
		return 1
	}
	return a.ID - b.ID
}

func (e *Engine) addRunning(r *request.Request) {
	e.demandAdd(committedTokens(r))
	e.running = append(e.running, r)
	i, _ := slices.BinarySearchFunc(e.sortedRunning, r, byArrivalID)
	e.sortedRunning = slices.Insert(e.sortedRunning, i, r)
}

func (e *Engine) removeRunning(r *request.Request) {
	e.demandAdd(-committedTokens(r))
	if i, ok := slices.BinarySearchFunc(e.sortedRunning, r, byArrivalID); ok {
		e.sortedRunning = slices.Delete(e.sortedRunning, i, i+1)
	}
	for i, x := range e.running {
		if x == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("engine: request %d not running in group %d", r.ID, e.groupID))
}

// DemandTokens estimates the group's memory demand following the standard
// accounting (§2.2): the committed KV of in-processing requests (at least
// their full prompt, since prefill will allocate it) plus the prompts of
// queued requests.
func (e *Engine) DemandTokens() int { return e.demandTokens }

// committedTokens is one running request's demand contribution: at least
// the full prompt (prefill will allocate it), more once decode has grown
// the sequence past it. Nil-Seq requests (stalled mid-handoff, or mid-
// transplant) still owe their prompt.
func committedTokens(r *request.Request) int {
	c := r.PrefillTarget()
	if r.Seq != nil && r.Seq.Tokens() > c {
		c = r.Seq.Tokens()
	}
	return c
}

// AccountQueuedDemand adds a request's queued-demand contribution for
// callers that push straight onto the discipline, bypassing Enqueue
// (reconfiguration transplants the waiting queue that way to preserve
// queue-entry stamps).
func (e *Engine) AccountQueuedDemand(r *request.Request) {
	e.demandAdd(r.PrefillTarget())
}

// maxRunning bounds the admitted set: vLLM's max_num_seqs per engine,
// scaled by pipeline depth (each stage hosts a full scheduler's worth).
func (e *Engine) maxRunning() int {
	if e.budget.MaxSeqs <= 0 {
		return int(^uint(0) >> 1)
	}
	return e.budget.MaxSeqs * e.depth
}

// runBeforeAdmit gives the policy its start-of-round hook.
func (e *Engine) runBeforeAdmit(*round) bool {
	e.cb.BeforeAdmit()
	return true
}

// runAdmit moves waiting requests into the running set in the discipline's
// dispatch order while their prompts fit in free KV blocks. Admission is
// head-of-line: when the head does not fit, nothing behind it is admitted
// (every discipline defines fairness by defining the head). With prefix
// caching the fit check reserves net of the cached chain — the hit tokens
// need no new blocks, but the matched blocks also stop counting as
// reclaimable (CanFitWithPrefix) — and the matched prefix counts as
// already prefilled, so those chunks never reach the iteration former.
func (e *Engine) runAdmit(*round) bool {
	for e.queue.Len() > 0 {
		if len(e.running) >= e.maxRunning() {
			return true
		}
		r := e.queue.Peek()
		if r.Done() {
			// Finished elsewhere (shouldn't happen) — drop defensively.
			e.queue.Pop()
			e.demandAdd(-r.PrefillTarget())
			delete(e.queuedAt, r.ID)
			continue
		}
		pfx := r.Prefix
		if !e.prefixCaching {
			pfx = kvcache.Prefix{}
		}
		if !e.pool.CanFitWithPrefix(pfx, r.PrefillTarget()) {
			return true
		}
		seq, hit, err := e.pool.NewSeqCached(pfx)
		if err != nil {
			return true
		}
		e.queue.Pop()
		e.demandAdd(-r.PrefillTarget())
		r.Seq = seq
		if hit > 0 {
			r.PrefilledTokens = hit
		}
		e.col.ObservePrefill(hit, r.PrefillTarget())
		if e.role == RolePrefill {
			// Wait measured from this queue entry, not original arrival:
			// a rerouted decode victim's prior lifetime is not queueing.
			since := r.Arrival
			if ts, ok := e.queuedAt[r.ID]; ok {
				since = ts
				delete(e.queuedAt, r.ID)
			}
			e.col.ObserveStageWait(metrics.StagePrefillQueue,
				e.simu.Now().Sub(since).Seconds())
		}
		r.SetState(request.StateRunning)
		e.addRunning(r)
		if e.tr != nil {
			e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
				Cat: obs.CatQueue, Name: "admit", Group: e.groupID,
				Track: "queue", Req: r.ID,
				Args: [2]obs.Arg{{Key: "prefix_hit", Val: int64(hit)}}})
		}
		e.rt.Transition(e.simu.Now(), r.ID, "prefill", e.groupID)
	}
	return true
}

// runCollect fills the round's decode and prefill halves with the
// schedulable running requests, excluding stalled ones, keeping only the
// halves the role serves. Order is deterministic: by arrival, then ID.
func (e *Engine) runCollect(rd *round) bool {
	// Append to locals so the loop does not store the slice headers back
	// into rd on every append.
	decodes, prefills := rd.decodes, rd.prefills
	// sortedRunning already carries the (Arrival, ID) order, so collection
	// is a single filtered walk: no per-round sort, no intermediate buffer.
	for _, r := range e.sortedRunning {
		// A non-Running state here means stalled: every stall path goes
		// through Stall (which sets a stall state) and Unstall restores
		// StateRunning, so the state check replaces the stalled-map lookup.
		if r.State() != request.StateRunning || r.Done() {
			continue
		}
		if r.InPrefill() {
			if !e.role.RunsPrefill() {
				panic(fmt.Sprintf("engine: decode group %d holds prefilling request %d",
					e.groupID, r.ID))
			}
			prefills = append(prefills, r)
		} else if e.role.RunsDecode() {
			decodes = append(decodes, r)
		} else {
			// A decode-ready request on a prefill group must be stalled
			// mid-handoff; reaching here unstalled means the policy's
			// Handoff accepted a request without stalling it — fail as
			// loudly as the mirrored decode-side violation does.
			panic(fmt.Sprintf("engine: prefill group %d holds unstalled decode-ready request %d",
				e.groupID, r.ID))
		}
	}
	rd.decodes, rd.prefills = decodes, prefills
	return true
}

// runForm packs one iteration batch from the collected halves. Each
// pipeline microbatch carries a full token budget (vLLM gives every
// in-flight virtual engine max_num_batched_tokens), so the iteration budget
// scales with pipeline depth.
func (e *Engine) runForm(rd *round) bool {
	budget := e.budget
	budget.MaxTokens *= e.depth
	if budget.MaxSeqs > 0 {
		budget.MaxSeqs *= e.depth
	}
	rd.items = batching.AppendIteration(rd.items[:0], rd.decodes, rd.prefills, budget)
	e.curStamp++
	rd.hadWork = len(rd.items) > 0
	return true
}

// runReserve allocates blocks for each item's new tokens, consulting the
// policy under pressure. Items that still cannot fit are dropped from this
// round (their requests simply make no progress this iteration).
func (e *Engine) runReserve(rd *round) bool {
	// Filter in place, writing an item back only after a drop shifted the
	// kept ones: in the common no-pressure round every item survives and
	// the slice is never rewritten (no redundant copies, no write
	// barriers).
	kept := 0
	for i := range rd.items {
		it := &rd.items[i]
		ok := false
		for attempt := 0; attempt < 64; attempt++ {
			if it.Req.Seq == nil || it.Req.State() != request.StateRunning ||
				it.Req.GroupID != e.groupID {
				// A previous pressure call preempted or stalled this
				// request — or rerouted it to another group entirely (a
				// disaggregated decode victim re-admitted by a prefill
				// group within this same reserve pass).
				break
			}
			if err := it.Req.Seq.Append(it.Chunk); err == nil {
				// A decode append past the prompt raises the request's
				// committed-KV contribution (prefill stays within the
				// prompt already accounted at admission).
				if after := it.Req.Seq.Tokens(); after > it.Req.PrefillTarget() {
					before := after - it.Chunk
					if pt := it.Req.PrefillTarget(); before < pt {
						before = pt
					}
					e.demandAdd(after - before)
				}
				ok = true
				break
			}
			need := e.pool.BlocksForTokens(it.Req.Seq.Tokens()+it.Chunk) - it.Req.Seq.Blocks()
			if !e.cb.HandlePressure(need) {
				break
			}
		}
		if ok {
			it.Req.RoundLock = e.curStamp
			if kept != i {
				rd.items[kept] = *it
			}
			kept++
		}
	}
	rd.items = rd.items[:kept]
	return true
}

// runLaunch hands the reserved batch to the pipeline, or schedules a
// pressure retry when nothing survived reservation.
func (e *Engine) runLaunch(rd *round) bool {
	if len(rd.items) == 0 {
		if rd.hadWork {
			// Memory pressure blocked every item and the policy
			// could not free anything synchronously; retry after
			// Config.RetryRoundDelay (asynchronous relief — swap-out
			// completion, a migration, a drop — will land in the
			// meantime).
			e.simu.After(e.retryDelay, "retry-round", e.wakeFn)
		}
		e.fireDrainedIfIdle()
		return false
	}
	e.executing = true
	e.roundsRun++
	if e.tr != nil {
		now := e.simu.Now()
		e.roundStart = now
		// Counter tracks sampled once per launched round.
		e.counter(now, "kv_blocks_used", float64(e.pool.UsedBlocks()))
		e.counter(now, "queue_depth", float64(e.queue.Len()))
		e.counter(now, "batch_size", float64(len(rd.items)))
		e.counter(now, "running", float64(len(e.running)))
	}
	var mbs [][]batching.Item
	if e.depth == 1 {
		// Former implementations must return a single-stage batch unsplit
		// (the interface contract), so skip the call and reuse a
		// persistent one-element header instead of allocating it per round.
		e.mb1[0] = rd.items
		mbs = e.mb1[:]
	} else {
		mbs = e.cb.Form(rd.items, e.depth)
	}
	e.pipe.RunRound(mbs, e.finishFn)
	return true
}

func (e *Engine) counter(now sim.Time, name string, v float64) {
	e.tr.Emit(obs.Event{Phase: obs.PhaseCounter, Time: now, Cat: obs.CatEngine,
		Name: name, Group: e.groupID, Req: obs.ReqNone, Value: v})
}

func (e *Engine) startRound() {
	if e.executing || e.scheduling || e.closed || e.draining {
		return
	}
	e.scheduling = true
	defer func() { e.scheduling = false }()
	rd := &e.rd
	rd.decodes = rd.decodes[:0]
	rd.prefills = rd.prefills[:0]
	rd.items = rd.items[:0]
	rd.hadWork = false
	for _, st := range e.stages {
		ok := st.run(e, rd)
		if e.tr != nil {
			// One instant per stage, on the stage's own thread row, so
			// Perfetto shows the pipeline's shape round by round.
			e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
				Cat: obs.CatEngine, Name: st.name, Group: e.groupID,
				Track: "stage/" + st.name, Req: obs.ReqNone,
				Args: [2]obs.Arg{
					{Key: "queued", Val: int64(e.queue.Len())},
					{Key: "running", Val: int64(len(e.running))},
				}})
		}
		if !ok {
			return
		}
	}
}

func (e *Engine) finishRound(items []batching.Item) {
	now := e.simu.Now()
	tokens := 0
	for _, it := range items {
		r := it.Req
		if r.Done() || r.State() != request.StateRunning || r.GroupID != e.groupID {
			// Finished earlier in this loop (duplicate item), preempted
			// mid-round by a policy action, or rerouted to another group.
			continue
		}
		if it.IsPrefill {
			before := r.Generated
			r.AdvancePrefill(it.Chunk, now)
			if r.Generated > before {
				tokens++
			}
			if e.role != RolePrefill && !r.InPrefill() && !r.Done() {
				e.rt.Transition(now, r.ID, "decode", e.groupID)
			}
			if e.role == RolePrefill && !r.InPrefill() && !r.Done() {
				// The prefill is complete but decode belongs to
				// another pool: the policy stalls the request and
				// ships its KV.
				if e.cb.Handoff == nil || !e.cb.Handoff(r) {
					panic(fmt.Sprintf("engine: prefill group %d has no handoff for request %d",
						e.groupID, r.ID))
				}
			}
		} else {
			// decodeReady is nil outside disaggregated serving; skipping
			// the lookup keeps the collocated decode path map-free.
			if len(e.decodeReady) > 0 {
				if ts, ok := e.decodeReady[r.ID]; ok {
					e.col.ObserveStageWait(metrics.StageDecodeQueue, now.Sub(ts).Seconds())
					delete(e.decodeReady, r.ID)
				}
			}
			if e.rt != nil {
				e.rt.Transition(now, r.ID, "decode", e.groupID)
			}
			r.AdvanceDecode(now)
			tokens++
		}
		if r.Done() {
			e.finishRequest(r, now)
		}
	}
	if tokens > 0 {
		e.col.EmitTokens(now, tokens)
	}
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseComplete, Time: e.roundStart,
			Dur: now.Sub(e.roundStart), Cat: obs.CatEngine, Name: "round",
			Group: e.groupID, Track: "engine", Req: obs.ReqNone,
			Args: [2]obs.Arg{
				{Key: "items", Val: int64(len(items))},
				{Key: "tokens", Val: int64(tokens)},
			}})
	}
	e.executing = false
	if e.closed {
		return
	}
	if e.draining {
		e.fireDrainedIfIdle()
		return
	}
	e.startRound()
}

func (e *Engine) finishRequest(r *request.Request, now sim.Time) {
	e.removeRunning(r)
	delete(e.decodeReady, r.ID)
	if r.Seq != nil {
		r.Seq.Free()
		r.Seq = nil
	}
	r.SetState(request.StateFinished)
	e.rt.End(now, r.ID)
	e.col.Finish(metrics.RequestRecord{
		ID:           r.ID,
		Arrival:      r.Arrival,
		FirstToken:   r.FirstTokenAt,
		Completed:    now,
		OutputTokens: r.OutputLen,
		Client:       r.Client,
		Class:        r.Class,
	})
	e.cb.Finished(r)
}

// Drain freezes the engine after the in-flight round and calls then once
// idle. Used by reconfiguration (merge on drop, split on restore).
func (e *Engine) Drain(then func()) {
	e.draining = true
	e.onDrained = then
	e.fireDrainedIfIdle()
}

func (e *Engine) fireDrainedIfIdle() {
	if e.draining && !e.executing && e.onDrained != nil {
		fn := e.onDrained
		e.onDrained = nil
		fn()
	}
}

// ExtractRequests empties the engine's request sets for transplantation
// into a successor group, marking the engine closed. Stalled requests are
// returned within running; callers must preserve their stall bookkeeping.
func (e *Engine) ExtractRequests() (running, waiting []*request.Request, stalled map[int]*request.Request) {
	if e.executing {
		panic(fmt.Sprintf("engine: extracting from executing group %d", e.groupID))
	}
	running, stalled = e.running, e.stalled
	e.demandAdd(-e.demandTokens)
	for e.queue.Len() > 0 {
		waiting = append(waiting, e.queue.Pop())
	}
	e.running = nil
	e.sortedRunning = nil
	e.stalled = make(map[int]*request.Request)
	e.closed = true
	return running, waiting, stalled
}
