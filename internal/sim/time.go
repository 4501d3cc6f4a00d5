// Package sim provides a deterministic discrete-event simulation kernel.
//
// All components of the simulated serving cluster (GPU executors, network
// links, monitors, dispatchers) schedule work on a single Simulation whose
// virtual clock advances only when events fire. Determinism is guaranteed by
// a stable event ordering (time, then insertion sequence) and by requiring
// all randomness to flow through the simulation-owned RNG.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the stdlib constants (time.Millisecond, ...) convert
// directly.
type Duration = time.Duration

// Common duration units re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// DurationFromSeconds converts floating-point seconds to a Duration.
func DurationFromSeconds(s float64) Duration {
	return Duration(s * float64(Second))
}
