//go:build arm64

package tsc

// Assembly routines (tsc_arm64.s).
func cntvct() uint64
func cntvctRaw() uint64

// The generic timer's virtual count is architecturally required to be
// constant-rate and consistent across cores, so it plays the role of
// invariant TSC (§II-A's discussion of ARM's counters).

func supported() bool { return true }
func invariant() bool { return true }

func readFenced() uint64 { return cntvct() }
func readCPUID() uint64  { return cntvct() } // no CPUID analogue; fully ordered read
func read() uint64       { return cntvctRaw() }
func readP() uint64      { return cntvctRaw() }
