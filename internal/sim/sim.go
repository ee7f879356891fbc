// Package sim provides the virtual-time primitives used by the flash
// simulator: a nanosecond-resolution clock type and resources that model
// exclusive occupancy (a flash chip busy programming a page, a channel busy
// transferring one).
//
// Nothing in this package advances by itself. Callers schedule work by
// asking a Resource to occupy itself starting no earlier than some time and
// receive the completion time back. Because all experiment drivers issue
// work in non-decreasing time order, a simple busy-until watermark per
// resource is sufficient and exact.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the simulated clock, in nanoseconds since
// the start of the simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is deliberately a
// distinct type from time.Duration so that wall-clock and simulated time
// cannot be mixed by accident, but the constructors below accept
// time.Duration literals for readability.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Backoff is the capped-doubling retry schedule both the open-loop client
// and the transaction coordinator use: min(base·2ⁿ, max), for n ≥ 0. The
// doubling stops at the cap, so no n overflows.
func Backoff(base, max Duration, n int) Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}

// D converts a wall-clock duration literal such as 56500*time.Nanosecond
// into a simulated Duration.
func D(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func Max(t, u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Seconds returns the time as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Resource models a unit of hardware that can do one thing at a time, such
// as a flash chip or a channel. The zero Resource is idle at the epoch.
type Resource struct {
	busyUntil Time
	busyTotal Duration
}

// Occupy reserves the resource for d starting no earlier than at, queueing
// behind any previously scheduled work. It returns the time at which the
// reserved work completes.
func (r *Resource) Occupy(at Time, d Duration) Time {
	start := Max(at, r.busyUntil)
	r.busyUntil = start.Add(d)
	r.busyTotal += d
	return r.busyUntil
}

// OccupyAt reserves the resource exactly like Occupy but also returns the
// start time, which callers need when a dependent resource must be occupied
// back-to-back (e.g. channel transfer after the cell read finishes).
func (r *Resource) OccupyAt(at Time, d Duration) (start, done Time) {
	start = Max(at, r.busyUntil)
	done = start.Add(d)
	r.busyUntil = done
	r.busyTotal += d
	return start, done
}

// FreeAt returns the earliest time the resource is idle again.
func (r *Resource) FreeAt() Time { return r.busyUntil }

// BusyTotal returns the cumulative time the resource has been occupied.
func (r *Resource) BusyTotal() Duration { return r.busyTotal }

// Utilization returns the fraction of [0, now] the resource spent occupied.
// It reports 0 for now at the epoch.
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(r.busyTotal) / float64(now)
}
