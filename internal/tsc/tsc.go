// Package tsc provides low-level access to the CPU's timestamp counter
// (TSC) via the RDTSC and RDTSCP instructions, together with the fence
// variants studied in the paper and the one test of whether the counter
// is trusted (Supported).
//
// On amd64 the four accessors map to real instruction sequences
// (implemented in tsc_amd64.s):
//
//	ReadFenced        RDTSCP ; LFENCE        (the paper's recommended API)
//	ReadCPUID         CPUID  ; RDTSC         (serializing, ~200 cycle cost)
//	Read              RDTSC                  (no ordering guarantees)
//	ReadP             RDTSCP                 (pseudo-serializing only)
//
// Where Supported is false — no RDTSCP, or a TSC that is not invariant —
// ReadFenced, and with it a TSC source and the telemetry clock, serves a
// monotonic nanosecond clock, which preserves the two properties the
// algorithms need (monotonicity and cross-core agreement) at a higher
// per-read cost. The three bare reads, which only Figure 1 measures, still
// run their instructions on amd64 (ReadP runs RDTSC without RDTSCP); on an
// architecture with no counter every accessor serves the monotonic clock.
package tsc

import "time"

var start = time.Now()

// Monotonic returns nanoseconds from an arbitrary process-local origin
// using the runtime's monotonic clock. It is the portable fallback for
// every TSC accessor and is also exposed directly so callers can choose
// it explicitly (core.Monotonic).
func Monotonic() uint64 {
	return uint64(time.Since(start))
}

// Supported reports whether the counter is trusted to label operations:
// on amd64, RDTSCP is available and the TSC is invariant (a constant-rate
// TSC is what makes cross-core comparison sound); on arm64 the generic
// timer always is. It is the one predicate: ReadFenced's fallback, the
// source a TSC map actually runs on, the telemetry clock and the health
// monitor's fallback state all follow it.
func Supported() bool { return supported() }

// Invariant reports whether the CPU advertises invariant TSC
// (CPUID.80000007H:EDX[8]), i.e. the counter increments at a constant
// rate regardless of power states, keeping cores mutually synchronized.
func Invariant() bool { return invariant() }

// ReadFenced returns the TSC using RDTSCP followed by LFENCE — the
// paper's hardware timestamp API (Listing 1). RDTSCP waits for all
// preceding instructions to complete; the trailing LFENCE prevents
// subsequent instructions (including memory accesses) from starting
// before the counter is read.
func ReadFenced() uint64 { return readFenced() }

// ReadCPUID returns the TSC using CPUID followed by RDTSC. CPUID is a
// fully serializing instruction, giving RDTSC the ordering guarantees it
// lacks, at a cost of roughly two hundred cycles.
func ReadCPUID() uint64 { return readCPUID() }

// Read returns the TSC using a bare RDTSC, with no ordering guarantees.
// Only safe when the surrounding algorithm provides its own
// synchronization around the read.
func Read() uint64 { return read() }

// ReadP returns the TSC using a bare RDTSCP (pseudo-serializing: earlier
// instructions complete first, but later ones may start early).
func ReadP() uint64 { return readP() }
