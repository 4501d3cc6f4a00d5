package engine

import (
	"reflect"
	"strings"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

func TestRoleSemantics(t *testing.T) {
	cases := []struct {
		role                      Role
		admits, prefills, decodes bool
		name                      string
	}{
		{RoleCollocated, true, true, true, "collocated"},
		{RolePrefill, true, true, false, "prefill"},
		{RoleDecode, false, false, true, "decode"},
	}
	for _, c := range cases {
		if c.role.AdmitsNewArrivals() != c.admits {
			t.Errorf("%v AdmitsNewArrivals = %v", c.role, !c.admits)
		}
		if c.role.RunsPrefill() != c.prefills {
			t.Errorf("%v RunsPrefill = %v", c.role, !c.prefills)
		}
		if c.role.RunsDecode() != c.decodes {
			t.Errorf("%v RunsDecode = %v", c.role, !c.decodes)
		}
		if c.role.String() != c.name {
			t.Errorf("%v String = %q", c.role, c.role.String())
		}
	}
	if !strings.Contains(Role(42).String(), "42") {
		t.Error("unknown role name")
	}
}

// stageNames returns the role's stage pipeline in execution order.
func stageNames(role Role) []string {
	var out []string
	for _, s := range stagesFor(role) {
		out = append(out, s.name)
	}
	return out
}

// The stage pipeline is role-selected: decode groups run no admission
// stage (their work arrives by handoff adoption), everyone else runs the
// full pipeline in the same order the monolithic loop used.
func TestStagePipelineSelection(t *testing.T) {
	full := []string{"policy", "admit", "collect", "form", "reserve", "launch"}
	if got := stageNames(RoleCollocated); !reflect.DeepEqual(got, full) {
		t.Errorf("collocated stages = %v", got)
	}
	if got := stageNames(RolePrefill); !reflect.DeepEqual(got, full) {
		t.Errorf("prefill stages = %v", got)
	}
	noAdmit := []string{"policy", "collect", "form", "reserve", "launch"}
	if got := stageNames(RoleDecode); !reflect.DeepEqual(got, noAdmit) {
		t.Errorf("decode stages = %v", got)
	}
}

const testRetryDelay = 10 * sim.Millisecond

// newTestEngine builds a single-stage collocated engine over a pool of
// blocks x 16-token blocks. pressure answers HandlePressure; finished
// collects completed requests.
func newTestEngine(blocks int, pressure func(need int) bool, finished *[]int) (*Engine, *sim.Simulation, *kvcache.Pool) {
	s := sim.New(1)
	pool := kvcache.NewPool(blocks, 16)
	stage := &pipeline.Stage{Timer: gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)}
	e := New(Options{
		Sim:        s,
		Pool:       pool,
		Pipeline:   pipeline.New(s, []*pipeline.Stage{stage}, 1),
		Queue:      sched.NewFCFS(),
		Collector:  metrics.NewCollector(sim.Second),
		Budget:     batching.Budget{MaxTokens: 512},
		Depth:      1,
		RetryDelay: testRetryDelay,
		Callbacks: Callbacks{
			BeforeAdmit:    func() {},
			HandlePressure: pressure,
			Finished:       func(r *request.Request) { *finished = append(*finished, r.ID) },
		},
	})
	return e, s, pool
}

// adopt puts a request into the running set with an empty sequence.
func adopt(t *testing.T, e *Engine, pool *kvcache.Pool, r *request.Request) {
	t.Helper()
	seq, err := pool.NewSeq(0)
	if err != nil {
		t.Fatal(err)
	}
	r.Seq = seq
	r.SetState(request.StateRunning)
	e.AdoptRunning(r)
}

func ids(rs []*request.Request) []int {
	out := make([]int, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.ID)
	}
	return out
}

// The collect stage hands the former the schedulable running requests in
// (Arrival, ID) order, whatever the admission order, and leaves stalled
// and finished requests out.
func TestCollectOrderExcludesStalledAndFinished(t *testing.T) {
	var finished []int
	e, _, pool := newTestEngine(64, func(int) bool { return false }, &finished)
	at := sim.FromSeconds
	// Admission order deliberately differs from (Arrival, ID) order.
	reqs := []*request.Request{
		request.New(5, at(3), 16, 4), // decode
		request.New(4, at(1), 16, 4), // prefill
		request.New(9, at(2), 16, 4), // decode
		request.New(2, at(2), 16, 4), // prefill, ties 9 on arrival
		request.New(7, at(0), 16, 4), // decode, stalled below
		request.New(3, at(0), 16, 1), // finished: its prefill emits its only token
		request.New(8, at(1), 16, 4), // prefill, ties 4 on arrival
	}
	for _, r := range reqs {
		adopt(t, e, pool, r)
	}
	for _, r := range reqs {
		if r.ID == 5 || r.ID == 9 || r.ID == 7 || r.ID == 3 {
			r.AdvancePrefill(16, 0)
		}
	}
	e.Stall(reqs[4], request.StateSwapped)

	var rd round
	if !e.runCollect(&rd) {
		t.Fatal("collect ended the round")
	}
	if got, want := ids(rd.decodes), []int{9, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("decodes = %v, want %v", got, want)
	}
	if got, want := ids(rd.prefills), []int{4, 8, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("prefills = %v, want %v", got, want)
	}

	// Unstalling puts the request back at its (Arrival, ID) position.
	e.Unstall(reqs[4])
	rd = round{}
	e.runCollect(&rd)
	if got, want := ids(rd.decodes), []int{7, 9, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("decodes after unstall = %v, want %v", got, want)
	}
}

// A round whose every item is blocked by KV pressure the policy cannot
// relieve schedules exactly one retry, RetryDelay later. Once blocks are
// freed in the meantime, the retry's round launches and the request runs
// to completion.
func TestPressureBlockedRoundRetries(t *testing.T) {
	var finished []int
	pressureCalls := 0
	e, s, pool := newTestEngine(4, func(int) bool { pressureCalls++; return false }, &finished)
	r := request.New(1, 0, 32, 3)
	adopt(t, e, pool, r)
	hog, err := pool.NewSeq(pool.FreeBlocks() * 16)
	if err != nil {
		t.Fatal(err)
	}

	e.Wake()
	if pressureCalls != 1 || e.Executing() || r.Seq.Tokens() != 0 {
		t.Fatalf("blocked round: pressure calls %d, executing %v, tokens %d",
			pressureCalls, e.Executing(), r.Seq.Tokens())
	}
	if next, ok := s.NextEventTime(); !ok || next != sim.Time(testRetryDelay) {
		t.Fatalf("next event at %v (pending %v), want the retry at %v", next, ok, testRetryDelay)
	}

	// Asynchronous relief lands before the retry fires.
	s.At(sim.Time(testRetryDelay/2), "free", hog.Free)
	s.RunUntil(sim.Time(testRetryDelay))
	// Exactly two events fired: the free and a single retry.
	if s.Processed != 2 {
		t.Fatalf("processed %d events by the retry instant, want 2", s.Processed)
	}
	if !e.Executing() || r.Seq.Tokens() != 32 || pressureCalls != 1 {
		t.Fatalf("retry round: executing %v, tokens %d, pressure calls %d",
			e.Executing(), r.Seq.Tokens(), pressureCalls)
	}

	s.Run()
	if !reflect.DeepEqual(finished, []int{1}) || e.RunningLen() != 0 {
		t.Fatalf("finished %v, running %d; want request 1 done", finished, e.RunningLen())
	}
	if e.RoundsRun() != 3 {
		t.Errorf("rounds run = %d, want 3 (prefill + 2 decodes)", e.RoundsRun())
	}
}
