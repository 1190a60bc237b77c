package tsc

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestMonotonicAdvances(t *testing.T) {
	a := Monotonic()
	b := Monotonic()
	if b < a {
		t.Fatalf("monotonic clock went backwards: %d then %d", a, b)
	}
}

func TestReadFencedMonotonicSingleThread(t *testing.T) {
	prev := ReadFenced()
	for i := 0; i < 100000; i++ {
		now := ReadFenced()
		if now < prev {
			t.Fatalf("ReadFenced went backwards at i=%d: %d then %d", i, prev, now)
		}
		prev = now
	}
}

func TestReadCPUIDMonotonicSingleThread(t *testing.T) {
	prev := ReadCPUID()
	for i := 0; i < 10000; i++ {
		now := ReadCPUID()
		if now < prev {
			t.Fatalf("ReadCPUID went backwards at i=%d: %d then %d", i, prev, now)
		}
		prev = now
	}
}

func TestUnfencedVariantsReturnSomething(t *testing.T) {
	// Without fences ordering is unspecified, but the values should still
	// be drawn from a counter that moves forward over a long window.
	a := Read()
	b := ReadP()
	for i := 0; i < 1_000_000; i++ {
		_ = Read()
	}
	c := Read()
	d := ReadP()
	if c < a || d < b {
		t.Fatalf("unfenced TSC regressed over a long window: %d->%d, %d->%d", a, c, b, d)
	}
}

// TestCrossGoroutineOrdering checks the property the paper depends on:
// a timestamp read that happens-after another (enforced here with a
// channel) must not be smaller.
func TestCrossGoroutineOrdering(t *testing.T) {
	if !Supported() && runtime.GOARCH == "amd64" {
		t.Log("RDTSCP not advertised; exercising fallback path")
	}
	const rounds = 20000
	ch := make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ch {
			now := ReadFenced()
			if now < v {
				t.Errorf("happens-after violated: sender read %d, receiver read %d", v, now)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		ch <- ReadFenced()
	}
	close(ch)
	<-done
}

// TestConcurrentReadsAreNearlyDistinct measures how often concurrent
// readers observe tied TSC values (§III-A of the paper: ties are
// theoretically possible but rare). It only reports; ties are legal.
func TestConcurrentReadsAreNearlyDistinct(t *testing.T) {
	const perG = 5000
	const gs = 4
	var mu sync.Mutex
	all := make([]uint64, 0, perG*gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, perG)
			for i := range local {
				local[i] = ReadFenced()
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ties := 0
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			ties++
		}
	}
	t.Logf("ties among %d concurrent reads: %d (%.4f%%)", len(all), ties, 100*float64(ties)/float64(len(all)))
}

// An invariant counter exists only where a build reads one: amd64's TSC
// (when CPUID reports it) and arm64's generic timer, constant-rate by
// specification. The fallback build has no counter and reports none.
func TestFeatureDetectionConsistent(t *testing.T) {
	if Invariant() && runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Fatalf("invariant counter reported on %s, whose build reads none", runtime.GOARCH)
	}
	t.Logf("GOARCH=%s supported=%v invariant=%v", runtime.GOARCH, Supported(), Invariant())
}

func BenchmarkReadFenced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ReadFenced()
	}
}

func BenchmarkReadCPUID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ReadCPUID()
	}
}

func BenchmarkReadUnfenced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Read()
	}
}

func BenchmarkMonotonic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Monotonic()
	}
}
