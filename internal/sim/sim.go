package sim

import (
	"fmt"
	"math/rand"
)

// event is a scheduled callback. The callback runs with the simulation clock
// set to the event's firing time. Event structs are pooled: once an event
// fires, its struct is recycled for a later schedule.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// fnArg/arg are the AtCall form: one persistent callback shared by many
	// events, parameterized per event. Exactly one of fn/fnArg is set.
	fnArg func(arg any)
	arg   any
	label string
}

// Simulation is a deterministic discrete-event simulator. It is not safe for
// concurrent use; the entire simulated world runs on one goroutine.
type Simulation struct {
	now   Time
	queue []*event // binary min-heap ordered by (time, sequence)
	free  []*event // recycled event structs awaiting reuse
	seq   uint64
	rng   *rand.Rand
	// Processed counts events that have fired (for diagnostics and the
	// kernel throughput benchmark).
	Processed uint64
}

// New creates a simulation with a deterministic RNG derived from seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation-owned RNG. All stochastic decisions inside the
// simulated world must use this generator so runs are reproducible.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at time t. Scheduling in the past panics: that is
// always a logic error in a discrete-event model.
func (s *Simulation) At(t Time, label string, fn func()) {
	s.schedule(t, s.ReserveSeq(1), label).fn = fn
}

// AtCall schedules fn(arg) at time t. It is the allocation-free fan-out
// form of At: one persistent fn closure shared across many events plus a
// per-event arg replaces a fresh closure per schedule (converting a
// pointer-typed arg to any does not allocate).
func (s *Simulation) AtCall(t Time, label string, fn func(arg any), arg any) {
	e := s.schedule(t, s.ReserveSeq(1), label)
	e.fnArg = fn
	e.arg = arg
}

// ReserveSeq sets aside n consecutive tie-break sequence numbers and
// returns the first. Events later scheduled under them with AtCallSeq pop
// exactly where they would have had they been scheduled now: a producer
// can emit a long, time-sorted event stream one event at a time (each
// scheduling its successor) and keep the order of scheduling it all up
// front, with one pending event instead of n.
func (s *Simulation) ReserveSeq(n int) uint64 {
	base := s.seq
	s.seq += uint64(n)
	return base
}

// AtCallSeq is AtCall under a sequence number from ReserveSeq, each of
// which schedules at most one event. Using a number that was never
// reserved panics.
func (s *Simulation) AtCallSeq(t Time, seq uint64, label string, fn func(arg any), arg any) {
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: %q scheduled under unreserved sequence %d", label, seq))
	}
	e := s.schedule(t, seq, label)
	e.fnArg = fn
	e.arg = arg
}

// AfterCall schedules fn(arg) to run d after the current time.
func (s *Simulation) AfterCall(d Duration, label string, fn func(arg any), arg any) {
	s.AtCall(s.after(d, label), label, fn, arg)
}

// after returns the firing time d from now; a negative delay panics.
func (s *Simulation) after(d Duration, label string) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.now.Add(d)
}

// schedule acquires and enqueues an event struct at (t, seq); the caller
// fills in the callback.
func (s *Simulation) schedule(t Time, seq uint64, label string) *event {
	if t.Before(s.now) {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = t
	e.seq = seq
	e.label = label
	s.push(e)
	return e
}

// After schedules fn to run d after the current time.
func (s *Simulation) After(d Duration, label string, fn func()) {
	s.At(s.after(d, label), label, fn)
}

// recycle retires an event struct to the free list; dropping fn releases
// the captured closure for the collector.
func (s *Simulation) recycle(e *event) {
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.label = ""
	s.free = append(s.free, e)
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
func (s *Simulation) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.popMin()
	if e.at.Before(s.now) {
		panic("sim: time went backwards")
	}
	s.now = e.at
	s.Processed++
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	// Recycle before running: fn may schedule new events, and the freshly
	// retired struct is first in line for reuse.
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// Run processes events until the queue drains.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with firing time <= deadline. The clock is left
// at the later of its current value and the deadline.
func (s *Simulation) RunUntil(deadline Time) {
	for len(s.queue) > 0 && !deadline.Before(s.queue[0].at) {
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// The event queue is a hand-rolled binary min-heap over (at, seq). Because
// (at, seq) is a strict total order — seq is unique per event — pop order
// is identical to any other correct heap, so replacing container/heap cannot
// perturb simulation results. Hand-rolling avoids the any-boxing and
// interface dispatch of heap.Push/heap.Pop on the hottest path in the
// simulator.

func (s *Simulation) eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (s *Simulation) push(e *event) {
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue) - 1)
}

func (s *Simulation) popMin() *event {
	q := s.queue
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return e
}

func (s *Simulation) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// siftDown restores heap order below index i.
func (s *Simulation) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.eventLess(q[r], q[child]) {
			child = r
		}
		if !s.eventLess(q[child], e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}
