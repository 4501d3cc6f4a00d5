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
	"kunserve/internal/obs"
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

// roundSteps runs one scheduling round under a recorder and returns the
// stage/* instants it emitted, in order.
func roundSteps(t *testing.T, role Role) []string {
	t.Helper()
	var finished []int
	e, _, pool := newTestEngine(64, func(int) bool { return false }, &finished)
	rec := obs.NewRecorder("round")
	e.tr = rec
	e.cb.Handoff = func(*request.Request) bool { return true }
	if err := e.SetRole(role); err != nil {
		t.Fatal(err)
	}
	if role == RoleDecode {
		r := request.New(1, 0, 16, 4)
		adopt(t, e, pool, r)
		r.AdvancePrefill(16, 0)
		e.Wake()
	} else {
		e.Enqueue(request.New(1, 0, 16, 4))
	}
	if !e.Executing() {
		t.Fatalf("%v: round did not launch", role)
	}
	var out []string
	for _, ev := range rec.Events() {
		if ev.Cat != obs.CatEngine || !strings.HasPrefix(ev.Track, "stage/") {
			continue
		}
		if ev.Track != "stage/"+ev.Name || ev.Req != obs.ReqNone {
			t.Errorf("%v: stage instant %q on track %q, req %d", role, ev.Name, ev.Track, ev.Req)
		}
		out = append(out, ev.Name)
	}
	return out
}

// A round is straight-line: every step emits one stage instant in order,
// and decode groups skip admission (their work arrives by handoff
// adoption).
func TestRoundStepsPerRole(t *testing.T) {
	full := []string{"policy", "admit", "collect", "form", "reserve", "launch"}
	noAdmit := []string{"policy", "collect", "form", "reserve", "launch"}
	for _, c := range []struct {
		role Role
		want []string
	}{
		{RoleCollocated, full},
		{RolePrefill, full},
		{RoleDecode, noAdmit},
	} {
		if got := roundSteps(t, c.role); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v round steps = %v, want %v", c.role, got, c.want)
		}
	}
}

// The prefill role hands completed prefills to Handoff, so an engine
// without one refuses the role and stays collocated.
func TestPrefillRoleRequiresHandoff(t *testing.T) {
	var finished []int
	e, _, _ := newTestEngine(64, func(int) bool { return false }, &finished)
	if err := e.SetRole(RolePrefill); err == nil {
		t.Fatal("prefill role accepted without a Handoff callback")
	}
	if e.Role() != RoleCollocated {
		t.Errorf("role after refused switch = %v, want collocated", e.Role())
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
		Collector:  metrics.NewCollector(sim.Second, nil),
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
	e.runCollect(&rd)
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

// Unstall panics on a request that is not stalled here: a running request,
// or one whose stall state belongs to another group.
func TestUnstallNonStalledPanics(t *testing.T) {
	var finished []int
	e, _, pool := newTestEngine(64, func(int) bool { return false }, &finished)
	running := request.New(1, 0, 16, 4)
	adopt(t, e, pool, running)
	foreign := request.New(2, 0, 16, 4)
	adopt(t, e, pool, foreign)
	e.Stall(foreign, request.StateMigrating)
	foreign.GroupID = e.groupID + 1
	for _, r := range []*request.Request{running, foreign} {
		if e.IsStalled(r) {
			t.Errorf("request %d reported stalled", r.ID)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("unstall of request %d (%v) did not panic", r.ID, r.State())
				}
			}()
			e.Unstall(r)
		}()
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

	// Asynchronous relief lands before the retry fires, and nothing else
	// runs until the retry instant.
	s.At(sim.Time(testRetryDelay/2), "free", hog.Free)
	s.RunUntil(sim.Time(testRetryDelay - 1))
	if s.Processed != 1 || e.Executing() {
		t.Fatalf("before the retry instant: processed %d events, executing %v; want only the free",
			s.Processed, e.Executing())
	}
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
