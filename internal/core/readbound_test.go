package core

import (
	"errors"
	"sync"
	"testing"
)

func TestReadBoundWindowArithmetic(t *testing.T) {
	src := New(Logical)
	for src.Peek() < 100 {
		src.Advance()
	}
	reg := NewRegistry(2)

	rb := NewReadBound(src, 30)
	if got := rb.PruneBound(reg); got != 70 {
		t.Fatalf("PruneBound with window 30 at now=100 = %d, want 70", got)
	}
	if got := rb.Pruned(); got != 70 {
		t.Fatalf("published watermark = %d, want 70", got)
	}

	// A window wider than the whole history floors at zero.
	wide := NewReadBound(src, 1000)
	if got := wide.PruneBound(reg); got != 0 {
		t.Fatalf("PruneBound with window 1000 at now=100 = %d, want 0", got)
	}

	// window == 0: no retention promise; the low water is "now".
	none := NewReadBound(src, 0)
	if got := none.PruneBound(reg); got != 100 {
		t.Fatalf("PruneBound with window 0 at now=100 = %d, want 100", got)
	}
}

func TestReadBoundAnnouncedQueryLowersBound(t *testing.T) {
	src := New(Logical)
	for src.Peek() < 100 {
		src.Advance()
	}
	reg := NewRegistry(2)
	th := reg.MustRegister()
	defer th.Release()

	rb := NewReadBound(src, 10)

	// An announced in-flight query below the low water must win.
	th.BeginRQ()
	th.AnnounceRQ(40)
	if got := rb.PruneBound(reg); got != 40 {
		t.Fatalf("PruneBound with announced 40 = %d, want 40", got)
	}
	// The intended (not the actual) point is what gets published.
	if got := rb.Pruned(); got != 90 {
		t.Fatalf("published watermark = %d, want the intended 90", got)
	}
	th.DoneRQ()

	// A reserved (ReservedRQ = 0) slot pins the bound at zero.
	th.BeginRQ()
	if got := rb.PruneBound(reg); got != 0 {
		t.Fatalf("PruneBound with a reserved slot = %d, want 0", got)
	}
	th.DoneRQ()
}

func TestReadBoundWatermarkIsMonotonic(t *testing.T) {
	src := New(Logical)
	for src.Peek() < 100 {
		src.Advance()
	}
	reg := NewRegistry(1)
	rb := NewReadBound(src, 0)
	if got := rb.PruneBound(reg); got != 100 {
		t.Fatalf("first PruneBound = %d, want 100", got)
	}
	// The source does not move; repeated prunes must not lower the mark.
	if got := rb.PruneBound(reg); got != 100 {
		t.Fatalf("second PruneBound = %d, want 100", got)
	}
	if got := rb.Pruned(); got != 100 {
		t.Fatalf("watermark regressed to %d", got)
	}
}

func TestReadBoundCheckAt(t *testing.T) {
	src := New(Logical)
	for src.Peek() < 100 {
		src.Advance()
	}
	reg := NewRegistry(1)
	rb := NewReadBound(src, 30)
	rb.PruneBound(reg) // publish 70

	if err := rb.CheckAt(101); !errors.Is(err, ErrFutureTimestamp) {
		t.Fatalf("CheckAt(101) = %v, want ErrFutureTimestamp", err)
	}
	if err := rb.CheckAt(100); err != nil {
		t.Fatalf("CheckAt(now) = %v, want nil", err)
	}
	if err := rb.CheckAt(70); err != nil {
		t.Fatalf("CheckAt(watermark) = %v, want nil (boundary is inclusive)", err)
	}
	if err := rb.CheckAt(69); !errors.Is(err, ErrTruncatedHistory) {
		t.Fatalf("CheckAt(69) = %v, want ErrTruncatedHistory", err)
	}

	// Nil bound accepts everything (gating happens at the facade).
	var nilRB *ReadBound
	if err := nilRB.CheckAt(0); err != nil {
		t.Fatalf("nil CheckAt = %v, want nil", err)
	}
	if got := nilRB.Pruned(); got != 0 {
		t.Fatalf("nil Pruned = %d, want 0", got)
	}
}

// TestTrimBoundBelowPreScanSource pins the three properties that make a
// bound safe to cut a whole batch of chains against after the scan that
// produced it: it never exceeds the source value read before the scan (an
// idle registry must not yield Pending), a reservation made after the scan
// is protected (the bound is <= the snapshot that query takes later) until
// the next scan, which returns its announcement, and the bound is 0 while
// any slot is reserved at scan time.
func TestTrimBoundBelowPreScanSource(t *testing.T) {
	for _, wired := range []bool{false, true} {
		src := New(Logical)
		for src.Peek() < 100 {
			src.Advance()
		}
		var rb *ReadBound
		if wired {
			rb = NewReadBound(src, 0)
		}
		reg := NewRegistry(2)
		q := reg.MustRegister()

		before := src.Peek()
		b := TrimBound(src, reg, rb) // a scan over an idle registry
		if b > before {
			t.Fatalf("wired=%v: idle bound %d exceeds the pre-scan source read %d", wired, b, before)
		}
		// A query reserving after the scan is invisible to the bound a
		// batch is still being cut against; the cap protects it.
		q.BeginRQ()
		s := src.Snapshot()
		q.AnnounceRQ(s)
		if b > s {
			t.Fatalf("wired=%v: bound %d passes the snapshot %d a query took after the scan", wired, b, s)
		}
		for i := 0; i < 3; i++ {
			src.Advance()
		}
		// The next scan, capped above s, sees the announcement.
		if got := TrimBound(src, reg, rb); got != s {
			t.Fatalf("wired=%v: bound after rescan = %d, want the announced %d", wired, got, s)
		}
		q.DoneRQ()

		// A slot that is reserved but not yet announced holds every cut.
		q.BeginRQ()
		if got := TrimBound(src, reg, rb); got != ReservedRQ {
			t.Fatalf("wired=%v: bound with a reserved slot = %d, want %d", wired, got, ReservedRQ)
		}
		q.DoneRQ()
	}
}

// TestReadBoundPublishBeforeScan is the protocol's SC-atomics argument
// under the race detector: concurrent readers reserve, check, announce
// and read while a pruner repeatedly publishes and truncates. A reader
// that passed CheckAt(ts) must never find its ts below the bound the
// pruner actually used at that moment — asserted indirectly: every
// PruneBound result must be <= every announced ts that passed CheckAt,
// or the reader must have refused.
func TestReadBoundPublishBeforeScan(t *testing.T) {
	src := New(Logical)
	reg := NewRegistry(4)
	rb := NewReadBound(src, 8)

	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() { // writer: keep time moving
		defer writerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				src.Advance()
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := reg.MustRegister()
			defer th.Release()
			for i := 0; i < 2000; i++ {
				now := src.Peek()
				ts := TS(0)
				if now > 4 {
					ts = now - 4
				}
				th.BeginRQ()
				if err := rb.CheckAt(ts); err != nil {
					th.DoneRQ()
					continue
				}
				th.AnnounceRQ(ts)
				// Simulated collection: the bound any concurrent pruner
				// computes from here on must not exceed ts.
				if b := rb.PruneBound(th.Registry()); b > ts {
					t.Errorf("prune bound %d passed an announced, checked read at %d", b, ts)
					th.DoneRQ()
					return
				}
				th.DoneRQ()
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}
