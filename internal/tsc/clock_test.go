package tsc

import (
	"testing"
	"time"
)

// trackWall checks that c measures a 10 ms sleep within 5 % of the wall
// clock. The wall interval brackets the clock's, so a preemption between
// the reads only widens the gap; three attempts absorb one.
func trackWall(t *testing.T, c Clock) {
	t.Helper()
	var rel float64
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		n0 := c.Now()
		time.Sleep(10 * time.Millisecond)
		n1 := c.Now()
		wall := time.Since(t0)
		rel = float64(Elapsed(n0, n1))/float64(wall.Nanoseconds()) - 1
		if rel > -0.05 && rel < 0.05 {
			return
		}
	}
	t.Fatalf("clock measured a sleep %.1f %% off the wall clock", 100*rel)
}

func TestTelemetryClockTracksWallClock(t *testing.T) {
	trackWall(t, *TelemetryClock())
}

// TestTelemetryClockNeverBackwards: a raw reading may step back when the
// goroutine migrates between CPUs, but an interval taken with Elapsed never
// wraps into a huge value.
func TestTelemetryClockNeverBackwards(t *testing.T) {
	if Elapsed(5, 3) != 0 || Elapsed(3, 5) != 2 {
		t.Fatal("Elapsed does not clamp a negative interval to 0")
	}
	c := TelemetryClock()
	prev, back := c.Now(), 0
	for i := 0; i < 100_000; i++ {
		now := c.Now()
		if now < prev {
			back++
		}
		if d := Elapsed(prev, now); d > uint64(time.Second) {
			t.Fatalf("read %d: interval %d ns after the clamp", i, d)
		}
		prev = now
	}
	if back > 0 {
		t.Logf("%d raw backsteps clamped to 0", back)
	}
}

// TestClockFallbackServesMonotonic: a clock built for a host without an
// invariant counter reads Monotonic, at its rate.
func TestClockFallbackServesMonotonic(t *testing.T) {
	c := newClock(false)
	m0 := Monotonic()
	n := c.Now()
	m1 := Monotonic()
	if n < m0 || n > m1 {
		t.Fatalf("fallback clock read %d outside Monotonic's [%d, %d]", n, m0, m1)
	}
	trackWall(t, c)
}

func BenchmarkTelemetryClock(b *testing.B) {
	c := TelemetryClock()
	for i := 0; i < b.N; i++ {
		_ = c.Now()
	}
}
