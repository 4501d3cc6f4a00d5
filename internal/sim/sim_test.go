package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var zero Time
	tm := zero.Add(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if d := tm.Sub(zero); d != 1500*time.Millisecond {
		t.Fatalf("Sub = %v", d)
	}
	if !zero.Before(tm) || tm.Before(zero) {
		t.Fatal("ordering broken")
	}
	if got := FromSeconds(2.5); got != Time(2500*Millisecond) {
		t.Fatalf("FromSeconds = %v", got)
	}
	if got := DurationFromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("DurationFromSeconds = %v", got)
	}
	if s := Time(1234 * Millisecond).String(); s != "1.234s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(FromSeconds(3), "c", func() { order = append(order, 3) })
	s.At(FromSeconds(1), "a", func() { order = append(order, 1) })
	s.At(FromSeconds(2), "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != FromSeconds(3) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(FromSeconds(1), "e", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break broke insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var fired Time
	s.After(100*Millisecond, "outer", func() {
		s.After(50*Millisecond, "inner", func() { fired = s.Now() })
	})
	s.Run()
	if fired != FromSeconds(0.15) {
		t.Fatalf("fired at %v, want 0.150s", fired)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(FromSeconds(1), "a", func() { fired++ })
	s.At(FromSeconds(5), "b", func() { fired++ })
	s.RunUntil(FromSeconds(2))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != FromSeconds(2) {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	s.RunUntil(FromSeconds(10))
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(FromSeconds(1), "a", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(FromSeconds(0.5), "past", func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-time.Second, "neg", func() {})
}

func TestDeterministicRNG(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestProcessedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(Duration(i)*Millisecond, "e", func() {})
	}
	s.Run()
	if s.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed)
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := New(7)
		var fireTimes []Time
		var max Time
		for _, off := range offsets {
			d := Duration(off) * Microsecond
			at := Time(d)
			if at > max {
				max = at
			}
			s.At(at, "p", func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(offsets) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pooling must make the steady-state schedule/fire cycle allocation-free:
// once the pool is primed, neither scheduling nor firing touches the heap.
func TestAllocsSteadyStateScheduleFire(t *testing.T) {
	s := New(1)
	// Prime the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(Duration(i)*Microsecond, "prime", func() {})
	}
	s.Run()
	fn := func() {}
	avg := testing.AllocsPerRun(100, func() {
		s.After(Microsecond, "steady", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocated %v objects/op, want 0", avg)
	}
}

// Property: events scheduled at random times, with many ties, fire in
// strict (time, schedule sequence) order. Half the events schedule a
// same-instant follow-up from their callback; a follow-up carries a later
// sequence number, so it must fire after every event already queued for
// that instant.
func TestPropertyPopOrder(t *testing.T) {
	f := func(offsets []uint8) bool {
		s := New(3)
		type fire struct {
			at  Time
			seq int
		}
		var fired []fire
		next := 0
		var schedule func(d Duration, followUp bool)
		schedule = func(d Duration, followUp bool) {
			seq := next
			next++
			s.After(d, "p", func() {
				fired = append(fired, fire{s.Now(), seq})
				if followUp {
					schedule(0, false)
				}
			})
		}
		for i, off := range offsets {
			// Offsets mod 8 force ties between most events.
			schedule(Duration(off%8)*Millisecond, i%2 == 0)
		}
		s.Run()
		if len(fired) != len(offsets)+(len(offsets)+1)/2 {
			return false
		}
		for k := 1; k < len(fired); k++ {
			a, b := fired[k-1], fired[k]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a time-sorted stream scheduled late — each event schedules its
// successor under a sequence number reserved up front — pops in exactly the
// order the same stream pops when scheduled all at once, ties included.
// Unrelated events scheduled before and after the stream, and follow-ups
// the stream's events schedule as they fire, interleave identically.
func TestPropertyReservedSeqMatchesUpfront(t *testing.T) {
	f := func(offsets, noise []uint8) bool {
		// Stream times are sorted with many ties; noise times are not.
		times := make([]Time, len(offsets))
		for i, off := range offsets {
			times[i] = Time(off%4) * Time(Millisecond)
			if i > 0 && times[i] < times[i-1] {
				times[i] = times[i-1]
			}
		}
		run := func(chained bool) []int {
			s := New(1)
			var fired []int
			record := func(id int) func() {
				return func() { fired = append(fired, id) }
			}
			for j, off := range noise {
				s.At(Time(off%6)*Time(Millisecond), "pre", record(-1-j))
			}
			var base uint64
			var fire func(arg any)
			fire = func(arg any) {
				i := arg.(int)
				if chained && i+1 < len(times) {
					s.AtCallSeq(times[i+1], base+uint64(i+1), "stream", fire, i+1)
				}
				fired = append(fired, i)
				if i%2 == 0 {
					s.After(0, "follow", record(1000+i))
				}
			}
			if chained {
				base = s.ReserveSeq(len(times))
				if len(times) > 0 {
					s.AtCallSeq(times[0], base, "stream", fire, 0)
				}
			} else {
				for i, at := range times {
					s.AtCall(at, "stream", fire, i)
				}
			}
			for j, off := range noise {
				s.At(Time(off%5)*Time(Millisecond), "post", record(-1000-j))
			}
			s.Run()
			return fired
		}
		upfront, chained := run(false), run(true)
		if len(upfront) != len(chained) {
			return false
		}
		for k := range upfront {
			if upfront[k] != chained[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnreservedSeqPanics(t *testing.T) {
	s := New(1)
	base := s.ReserveSeq(2)
	s.AtCallSeq(0, base+1, "reserved", func(any) {}, nil)
	defer func() {
		if recover() == nil {
			t.Error("scheduling under an unreserved sequence did not panic")
		}
	}()
	s.AtCallSeq(0, base+2, "unreserved", func(any) {}, nil)
}
