package tsc

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Clock is the library's telemetry clock: the unfenced counter (Read)
// scaled to nanoseconds by a ratio calibrated once per process. Telemetry
// measures intervals and orders nothing, so the fence ReadFenced pays buys
// it nothing. Where the counter is not trusted (Supported is false) the
// clock serves Monotonic instead.
type Clock struct {
	read func() uint64 // Read, or Monotonic
	mult uint64        // nanoseconds per tick, 32.32 fixed point
}

// telemetryClock is the calibrated telemetry clock, nil until the first
// TelemetryClock call.
var telemetryClock atomic.Pointer[Clock]

// TelemetryClock returns the process's telemetry clock. The first call
// calibrates it, which takes about two milliseconds; every later call is
// one atomic load, small enough to inline, and returns the same clock, so
// readings from any caller share one origin.
func TelemetryClock() *Clock {
	if c := telemetryClock.Load(); c != nil {
		return c
	}
	return calibrateTelemetry()
}

// calibrateTelemetry builds and publishes the telemetry clock; of racing
// first calls, one clock wins.
func calibrateTelemetry() *Clock {
	c := newClock(Supported())
	telemetryClock.CompareAndSwap(nil, &c)
	return telemetryClock.Load()
}

// newClock builds a clock over the counter when counter is set, else over
// Monotonic.
func newClock(counter bool) Clock {
	if !counter {
		return Clock{read: Monotonic, mult: 1 << 32}
	}
	ticksPerNS, _ := calibrate(Read)
	return Clock{read: Read, mult: uint64(float64(1<<32) / ticksPerNS)}
}

// Now returns nanoseconds from an arbitrary origin. Readings on different
// CPUs may disagree slightly; take intervals with Elapsed.
func (c Clock) Now() uint64 {
	hi, lo := bits.Mul64(c.read(), c.mult)
	return hi<<32 | lo>>32
}

// Elapsed returns end - start, or 0 when end is below start: a thread that
// migrated between CPUs can read a counter that lags its first reading.
func Elapsed(start, end uint64) uint64 {
	if end < start {
		return 0
	}
	return end - start
}

// calibrate measures read's rate in ticks per nanosecond against the wall
// clock over a short busy window, and returns read's last value with it.
// A counter that did not advance reports a rate of 1.
func calibrate(read func() uint64) (ticksPerNS float64, last uint64) {
	t0 := time.Now()
	c0 := read()
	for time.Since(t0) < 2*time.Millisecond {
	}
	last = read()
	if el := time.Since(t0); el > 0 && last > c0 {
		return float64(last-c0) / float64(el.Nanoseconds()), last
	}
	return 1, last
}
