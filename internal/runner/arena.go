package runner

import (
	"fmt"
	"sync"

	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// TraceKey canonically identifies a generated workload trace: every input
// that feeds trace generation, and nothing else. Two callers presenting the
// same key are guaranteed (by the generators' determinism) to build
// byte-identical traces, so the arena can hand both the same *workload.Trace.
//
// Schedule-generated traces are keyed by (Seed, Duration, RPS, Dataset) —
// the full argument list of workload.Generate under the burst schedule.
// Spec-compiled traces are keyed by Spec, the comparable identity of the
// compiled source (the experiments layer passes the parsed *spec.Spec;
// a spec's own seed and duration govern its trace, so the pointer identity
// of one parsed spec subsumes the other fields).
type TraceKey struct {
	Seed     int64
	Duration sim.Duration
	RPS      float64
	Dataset  workload.Dataset
	// Spec is the comparable source identity for spec-compiled traces;
	// nil for schedule-generated ones.
	Spec any
}

// traceEntry is one arena slot. The once gate makes the first caller build
// while concurrent callers with the same key block and then share the
// result; the fingerprint taken at build time is the immutability witness
// CheckTraceArena verifies against.
type traceEntry struct {
	once sync.Once
	tr   *workload.Trace
	err  error
	fp   uint64
}

// traceArena is the process-wide shared-trace cache. Sweeps regenerate the
// same trace over and over — every figure of `-exp all` runs the same
// (seed, duration, rate, dataset) workload, and an instance sweep builds one
// trace per swept value — so the arena collapses those to one generation
// and one resident copy. Entries live for the process; callers that build
// genuinely unique traces (per-rung scale traces with derived seeds) should
// generate directly rather than pin them here.
var traceArena sync.Map // TraceKey -> *traceEntry

// SharedTrace returns the arena's trace for key, building it with build on
// first use. The returned trace is shared and MUST be treated as immutable:
// every cell of every run set holding it reads the same backing array.
// Callers that need a mutated variant derive it with a copying transform
// (workload.Upscale, RepeatBurst or Merge). CheckTraceArena catches
// violations.
func SharedTrace(key TraceKey, build func() (*workload.Trace, error)) (*workload.Trace, error) {
	e, _ := traceArena.LoadOrStore(key, &traceEntry{})
	entry := e.(*traceEntry)
	entry.once.Do(func() {
		entry.tr, entry.err = build()
		if entry.err == nil && entry.tr != nil {
			entry.fp = entry.tr.Fingerprint()
		}
	})
	return entry.tr, entry.err
}

// TraceArenaLen reports how many distinct traces the arena holds.
func TraceArenaLen() int {
	n := 0
	traceArena.Range(func(_, _ any) bool { n++; return true })
	return n
}

// ResetTraceArena empties the arena, releasing every cached trace. Tests
// use it for isolation; long-lived processes can use it between unrelated
// sweeps to unpin memory.
func ResetTraceArena() {
	traceArena.Range(func(k, _ any) bool { traceArena.Delete(k); return true })
}

// CheckTraceArena re-fingerprints every cached trace against the hash taken
// when it was built and reports the first mutation found. A non-nil error
// means some simulation wrote through a shared trace — a determinism bug:
// whichever cell ran first would have leaked state into every later cell
// sharing the key.
func CheckTraceArena() error {
	var err error
	traceArena.Range(func(k, v any) bool {
		entry := v.(*traceEntry)
		if entry.tr == nil {
			return true
		}
		if got := entry.tr.Fingerprint(); got != entry.fp {
			err = fmt.Errorf("runner: shared trace %+v mutated (fingerprint %#x, built %#x)",
				k, got, entry.fp)
			return false
		}
		return true
	})
	return err
}
