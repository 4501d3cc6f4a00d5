package sim

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestBatchedRunMatchesSequentialOrder drives the batched kernel through a
// same-instant cohort whose callbacks schedule more same-instant work, and
// checks the firing order is exactly the sequential (time, sequence) order.
func TestBatchedRunMatchesSequentialOrder(t *testing.T) {
	run := func(parallel int) []int {
		s := New(1)
		s.SetParallel(parallel)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			s.AfterPlanned(Millisecond, "e", func() {}, func() {
				order = append(order, i)
				if i < 4 {
					// Same-instant follow-up: must fire after the whole
					// cohort, in schedule order.
					s.After(0, "follow", func() { order = append(order, 100+i) })
				}
			})
		}
		s.Run()
		return order
	}
	seq := run(1)
	for _, p := range []int{2, 4} {
		got := run(p)
		if len(got) != len(seq) {
			t.Fatalf("parallel=%d fired %d events, sequential %d", p, len(got), len(seq))
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("parallel=%d order %v, sequential %v", p, got, seq)
			}
		}
	}
}

// TestBatchedPlansRunBeforeCallbacks asserts every plan hook of a cohort
// completes before any callback fires — the join that makes speculative
// planning safe.
func TestBatchedPlansRunBeforeCallbacks(t *testing.T) {
	s := New(1)
	s.SetParallel(4)
	var planned atomic.Int32
	const n = 6
	for i := 0; i < n; i++ {
		s.AfterPlanned(Millisecond, "e",
			func() { planned.Add(1) },
			func() {
				if got := planned.Load(); got != n {
					t.Errorf("callback fired with %d/%d plans done", got, n)
				}
			})
	}
	s.Run()
}

// TestFanoutPanicPropagates re-panics a worker panic on the caller with the
// hook's stack attached.
func TestFanoutPanicPropagates(t *testing.T) {
	s := New(1)
	s.SetParallel(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom") || !strings.Contains(msg, "plan hook panic") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	fns := make([]func(), 8)
	for i := range fns {
		fns[i] = func() {}
	}
	fns[5] = func() { panic("boom") }
	s.Fanout(fns)
}
