package sim

import "fmt"

// Time is an instant of virtual time, in integer nanoseconds since the
// start of the simulation. Virtual time has no relation to wall-clock
// time: it only advances when the kernel fires an event.
type Time int64

// Duration is a span of virtual time in integer nanoseconds.
type Duration int64

// Handy duration units, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros reports the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// stalled is the completion delay of a flow that cannot progress, and
// the ceiling of every converted span.
const stalled = Duration(1<<62 - 1)

// DurationOfSeconds converts floating-point seconds to a Duration,
// rounding to the nearest nanosecond. A non-positive input gives 0, and
// a span too long to represent saturates at the stall value instead of
// wrapping negative.
func DurationOfSeconds(s float64) Duration {
	if s <= 0 {
		return 0
	}
	if ns := s*1e9 + 0.5; ns < float64(stalled) {
		return Duration(ns)
	}
	return stalled
}

// TransferTime returns the time needed to move n bytes at rate bytes/sec.
// A non-positive rate yields the maximum representable duration, which the
// flow scheduler treats as "stalled".
func TransferTime(n int64, rate float64) Duration {
	if n <= 0 {
		return 0
	}
	if rate <= 0 {
		return stalled
	}
	d := DurationOfSeconds(float64(n) / rate)
	if d <= 0 {
		d = 1 // guarantee forward progress
	}
	return d
}

func (t Time) String() string     { return fmt.Sprintf("%.3fus", float64(t)/1e3) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }
