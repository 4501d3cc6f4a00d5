package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Deterministic intra-run parallelism. The simulated world still commits on
// exactly one goroutine, in exactly the sequential (time, sequence) order —
// what fans out across cores is only the *pure* per-component plan hooks of
// events that share a firing instant (see event.plan and AfterPlanned). The
// batched loop below pops a whole same-instant cohort, joins all its plan
// hooks, and only then fires the callbacks in order, so byte-identity with
// the sequential path holds at any worker count.

// SetParallel bounds the number of worker goroutines used for same-instant
// plan fan-out. n <= 1 (the default) disables batching entirely: the kernel
// runs the untouched sequential Step path. Call before Run/RunUntil; the
// setting is not safe to change from inside an event callback.
func (s *Simulation) SetParallel(n int) { s.parallel = n }

// Parallel returns the configured worker bound (0 or 1 means sequential).
func (s *Simulation) Parallel() int { return s.parallel }

// Fanout runs the hooks concurrently on up to Parallel() goroutines and
// returns once every hook has finished. With parallelism disabled, or a
// single hook, it simply runs them inline. A panicking hook is re-panicked
// on the caller's goroutine after the join, with the worker's stack attached
// so cell-level recovery (runner.Run) still reports a useful trace.
func (s *Simulation) Fanout(fns []func()) {
	n := s.parallel
	if n > len(fns) {
		n = len(fns)
	}
	if n <= 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  bool
		panicVal  any
	)
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stack := debug.Stack()
					panicOnce.Do(func() {
						panicked = true
						panicVal = fmt.Sprintf("sim: plan hook panic: %v\n%s", r, stack)
					})
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fns) {
					return
				}
				fns[i]()
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// stepBatch pops every event scheduled at the head timestamp, fans out their
// plan hooks, then fires the callbacks in (time, sequence) order. Events a
// callback schedules at the same instant carry higher sequence numbers, so
// they land in the *next* batch — exactly where the sequential loop would
// fire them relative to the already-popped cohort.
func (s *Simulation) stepBatch() {
	t := s.queue[0].at
	if t.Before(s.now) {
		panic("sim: time went backwards")
	}
	s.now = t
	batch := s.batch[:0]
	for len(s.queue) > 0 && s.queue[0].at == t {
		batch = append(batch, s.popMin())
	}
	if len(batch) > 1 {
		plans := s.plans[:0]
		for _, e := range batch {
			if e.plan != nil {
				plans = append(plans, e.plan)
			}
		}
		s.Fanout(plans)
		for i := range plans {
			plans[i] = nil
		}
		s.plans = plans[:0]
	}
	for i, e := range batch {
		batch[i] = nil
		fn, fnArg, arg := e.fn, e.fnArg, e.arg
		s.recycle(e)
		s.Processed++
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
	}
	s.batch = batch[:0]
}
