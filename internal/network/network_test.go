package network

import (
	"testing"
	"testing/quick"

	"kunserve/internal/sim"
)

func newTestLink(s *sim.Simulation) *Link {
	// 1 GB/s, zero latency: a 1 MB transfer takes exactly 1 ms.
	return NewLink(s, 1e9, 0)
}

func TestTransferTime(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, RDMA200, DefaultLatency)
	// 1 GiB over 25 GB/s ≈ 43 ms.
	d := l.TransferTime(1 << 30)
	if d < 40*sim.Millisecond || d > 46*sim.Millisecond {
		t.Errorf("1 GiB over 200 Gbps = %v, want ~43ms", d)
	}
}

func TestSendCompletesAfterSerialization(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var at sim.Time
	l.Send(2_000_000, PriorityBulk, "x", func() { at = s.Now() })
	s.Run()
	if at != sim.FromSeconds(0.002) {
		t.Errorf("completed at %v, want 2ms", at)
	}
	if l.BytesSent() != 2_000_000 {
		t.Errorf("bytes sent = %d", l.BytesSent())
	}
}

func TestFIFOWithinClass(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		l.Send(1_000_000, PriorityBulk, name, func() { order = append(order, name) })
	}
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

// The heart of §4.2: an activation queued behind bulk traffic jumps the
// queue and waits at most the in-flight transfer.
func TestActivationPriority(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	l.Send(1_000_000, PriorityBulk, "bulk1", func() { order = append(order, "bulk1") })
	l.Send(1_000_000, PriorityBulk, "bulk2", func() { order = append(order, "bulk2") })
	var actAt sim.Time
	s.After(100*sim.Microsecond, "inject", func() {
		l.Send(10_000, PriorityActivation, "act", func() {
			order = append(order, "act")
			actAt = s.Now()
		})
	})
	s.Run()
	if order[0] != "bulk1" || order[1] != "act" {
		t.Fatalf("order = %v, want activation after in-flight bulk only", order)
	}
	// bulk1 finishes at 1ms, activation takes 10µs.
	if want := sim.FromSeconds(0.00101); actAt != want {
		t.Errorf("activation done at %v, want %v", actAt, want)
	}
}

func TestParameterBetweenActivationAndBulk(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	l.Send(1_000_000, PriorityBulk, "b", func() { order = append(order, "bulk") })
	s.After(10*sim.Microsecond, "inject", func() {
		l.Send(1000, PriorityBulk, "b2", func() { order = append(order, "bulk2") })
		l.Send(1000, PriorityParameter, "p", func() { order = append(order, "param") })
		l.Send(1000, PriorityActivation, "a", func() { order = append(order, "act") })
	})
	s.Run()
	want := []string{"bulk", "act", "param", "bulk2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroByteSend(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, 1e9, 3*sim.Microsecond)
	fired := false
	l.Send(0, PriorityActivation, "z", func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("zero-byte send never completed")
	}
	if s.Now() != sim.Time(3*sim.Microsecond) {
		t.Errorf("completed at %v, want link latency", s.Now())
	}
}

func TestBusyAndStats(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	l.Send(1_000_000, PriorityBulk, "x", nil)
	s.RunUntil(sim.FromSeconds(0.0005))
	if l.BusyTime() != 500*sim.Microsecond {
		t.Errorf("busy time mid-transfer = %v, want 500µs", l.BusyTime())
	}
	s.Run()
	if l.BusyTime() != sim.Duration(sim.Millisecond) {
		t.Errorf("busy time = %v, want 1ms", l.BusyTime())
	}
	// An idle gap does not count as busy.
	s.RunUntil(sim.FromSeconds(0.005))
	if l.BusyTime() != sim.Duration(sim.Millisecond) {
		t.Errorf("busy time after idle gap = %v, want 1ms", l.BusyTime())
	}
	if l.BytesSent() != 1_000_000 {
		t.Errorf("bytes sent = %d", l.BytesSent())
	}
}

// chunkLog records each landed chunk's size through OnChunk.
func chunkLog(bt *BulkTransfer) *[]int64 {
	var sizes []int64
	bt.OnChunk = func(n int64) { sizes = append(sizes, n) }
	return &sizes
}

func TestChunkedTransferCompletes(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done := false
	bt := l.SendChunked(10_000_000, 1_000_000, PriorityBulk, "kv", func() { done = true })
	chunks := chunkLog(bt)
	s.Run()
	if !done {
		t.Fatal("chunked transfer incomplete")
	}
	if l.BytesSent() != 10_000_000 {
		t.Errorf("bytes = %d", l.BytesSent())
	}
	if s.Now() != sim.FromSeconds(0.01) {
		t.Errorf("finished at %v, want 10ms", s.Now())
	}
	if len(*chunks) != 10 {
		t.Errorf("chunks sent = %d, want 10", len(*chunks))
	}
}

// Activations injected mid-bulk-transfer wait at most one chunk: the §4.2
// guarantee that chunking provides.
func TestChunkedTransferYieldsToActivations(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	l.SendChunked(100_000_000, 1_000_000, PriorityBulk, "kv", nil) // 100 chunks x 1ms
	var waits []sim.Duration
	for i := 0; i < 5; i++ {
		at := sim.FromSeconds(0.0105 + float64(i)*0.01)
		s.At(at, "inject", func() {
			sent := s.Now()
			l.Send(1000, PriorityActivation, "act", func() {
				waits = append(waits, s.Now().Sub(sent))
			})
		})
	}
	s.Run()
	if len(waits) != 5 {
		t.Fatalf("activations completed: %d", len(waits))
	}
	for i, w := range waits {
		// At most one chunk (1ms) + own serialization (1µs).
		if w > 1100*sim.Microsecond {
			t.Errorf("activation %d waited %v, want <= ~1ms", i, w)
		}
	}
}

func TestChunkedPartialLastChunk(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done := false
	bt := l.SendChunked(1_500_000, 1_000_000, PriorityBulk, "kv", func() { done = true })
	chunks := chunkLog(bt)
	s.Run()
	if !done {
		t.Fatal("incomplete")
	}
	if l.BytesSent() != 1_500_000 {
		t.Errorf("bytes = %d", l.BytesSent())
	}
	if got := *chunks; len(got) != 2 || got[0] != 1_000_000 || got[1] != 500_000 {
		t.Errorf("chunks = %v, want [1000000 500000]", got)
	}
}

func TestChunkedZeroBytesFiresAsynchronously(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done := false
	l.SendChunked(0, 1024, PriorityBulk, "kv", func() { done = true })
	if done {
		t.Fatal("zero-byte chunked transfer completed synchronously (re-entrancy hazard)")
	}
	s.Run()
	if !done {
		t.Fatal("zero-byte chunked transfer never completed")
	}
}

// The bytes still owed shrink chunk by chunk and done fires exactly once,
// only after they reach zero: the invariant every handoff/exchange caller
// leans on.
func TestRemainingDoneInvariants(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	const total, chunk = 3_500_000, 1_000_000
	remaining := int64(total)
	fired := 0
	bt := l.SendChunked(total, chunk, PriorityBulk, "kv", func() {
		fired++
		if remaining != 0 {
			t.Errorf("done fired with %d bytes remaining", remaining)
		}
	})
	bt.OnChunk = func(n int64) {
		if n <= 0 || n > chunk || n > remaining {
			t.Errorf("chunk of %d bytes with %d remaining", n, remaining)
		}
		remaining -= n
	}
	s.Run()
	if fired != 1 || remaining != 0 {
		t.Fatalf("done fired %d times, %d bytes remaining", fired, remaining)
	}
}

func TestFabric(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 4, RDMA400, DefaultLatency)
	if f.Size() != 4 {
		t.Fatal("size")
	}
	if f.Egress(2) == f.Egress(1) {
		t.Fatal("instances share an egress link")
	}
	// Links are independent: parallel sends overlap.
	var doneAt [2]sim.Time
	f.Egress(0).Send(50_000_000, PriorityBulk, "a", func() { doneAt[0] = s.Now() })
	f.Egress(1).Send(50_000_000, PriorityBulk, "b", func() { doneAt[1] = s.Now() })
	s.Run()
	if doneAt[0] != doneAt[1] {
		t.Errorf("parallel sends: %v vs %v", doneAt[0], doneAt[1])
	}
}

func TestPanics(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	cases := []func(){
		func() { NewLink(s, 0, 0) },
		func() { l.Send(-1, PriorityBulk, "x", nil) },
		func() { l.Send(1, Priority(99), "x", nil) },
		func() { l.SendChunked(10, 0, PriorityBulk, "x", nil) },
		func() { l.SendChunked(10, -4, PriorityBulk, "x", nil) },
		func() { l.SendChunked(-1, 1024, PriorityBulk, "x", nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: total bytes sent equals the sum of all completed sends no
// matter how transfers interleave, and the link never loses a completion.
func TestPropertyByteConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := sim.New(5)
		l := newTestLink(s)
		var want int64
		completed := 0
		for i, sz := range sizes {
			b := int64(sz)
			want += b
			pri := Priority(i % int(numPriorities))
			l.Send(b, pri, "p", func() { completed++ })
		}
		s.Run()
		return l.BytesSent() == want && completed == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chunked transfer of any size/chunking sends exactly its bytes.
func TestPropertyChunkedConservation(t *testing.T) {
	f := func(total uint16, chunk uint8) bool {
		s := sim.New(5)
		l := newTestLink(s)
		c := int64(chunk)*16 + 1
		done := false
		l.SendChunked(int64(total), c, PriorityBulk, "kv", func() { done = true })
		s.Run()
		return done && l.BytesSent() == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
