//go:build !amd64 && !arm64

package tsc

// Non-amd64 hosts have no RDTSC/RDTSCP; every accessor degrades to the
// monotonic clock, which keeps the two properties the range-query
// algorithms rely on: monotonicity and agreement across cores.

func supported() bool { return false }
func invariant() bool { return false }

func readFenced() uint64 { return Monotonic() }
func readCPUID() uint64  { return Monotonic() }
func read() uint64       { return Monotonic() }
func readP() uint64      { return Monotonic() }
