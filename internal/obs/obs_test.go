package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 38, HistBuckets - 1},
		{^uint64(0), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// Property: every value falls in a bucket whose inclusive upper bound is
// >= the value, and the previous bucket's bound is < the value.
func TestBucketBoundsConsistent(t *testing.T) {
	for _, ns := range []uint64{0, 1, 2, 3, 5, 100, 999, 4096, 1 << 20, 1 << 37, 1 << 39} {
		i := bucketOf(ns)
		if up := BucketUpperNS(i); ns > up {
			t.Errorf("ns %d landed in bucket %d with upper bound %d", ns, i, up)
		}
		if i > 0 && i < HistBuckets-1 {
			if prev := BucketUpperNS(i - 1); ns <= prev {
				t.Errorf("ns %d should not fit below bucket %d (prev bound %d)", ns, i, prev)
			}
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.ObserveNS(0)
	h.ObserveNS(5)
	h.ObserveNS(5)
	h.ObserveNS(1000)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.SumNS != 1010 {
		t.Fatalf("sum = %d, want 1010", s.SumNS)
	}
	if s.MaxNS != 1000 {
		t.Fatalf("max = %d, want 1000", s.MaxNS)
	}
	if s.MeanNS != 252 {
		t.Fatalf("mean = %d, want 252", s.MeanNS)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
	// p50 of {0,5,5,1000}: rank 2 lands on a 5 -> bucket [4,7], halfway
	// through it by rank -> log-linear estimate 4 + 0.5*4 = 6.
	if s.P50NS != 6 {
		t.Fatalf("p50 = %d, want 6", s.P50NS)
	}
	// p99: rank 4 lands on 1000 -> bucket [512,1023], rank at the bucket
	// top -> estimate clamps to the bucket bound, then to the observed
	// max (1000).
	if s.P99NS != 1000 {
		t.Fatalf("p99 = %d, want 1000", s.P99NS)
	}
}

// The log-linear interpolation must keep quantile estimates close to
// the true values on a known distribution: uniform 1..100000 ns spans
// buckets whose widths reach 2^16, where the old report-the-bucket-
// bound estimator was off by up to 31% at p50.
func TestQuantileInterpolationErrorBounds(t *testing.T) {
	var h Histogram
	const n = 100_000
	for i := uint64(1); i <= n; i++ {
		h.ObserveNS(i)
	}
	cases := []struct {
		q      float64
		truth  float64
		maxErr float64 // relative
	}{
		{0.50, 50_000, 0.02},
		{0.95, 95_000, 0.06},
		{0.99, 99_000, 0.02},
	}
	for _, c := range cases {
		got := float64(h.QuantileNS(c.q))
		rel := (got - c.truth) / c.truth
		if rel < 0 {
			rel = -rel
		}
		if rel > c.maxErr {
			t.Errorf("p%.0f = %.0f, truth %.0f: relative error %.3f exceeds %.3f",
				100*c.q, got, c.truth, rel, c.maxErr)
		}
	}
	// The estimate must never exceed the observed max.
	if q := h.QuantileNS(1.0); q > n {
		t.Errorf("p100 = %d exceeds observed max %d", q, n)
	}
}

func TestEmptyHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.QuantileNS(0.99); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
}

// Maps attaching to one registry while it is scraped: every Attach hands
// back its own width of the one shard table, counts made through an early
// attachment survive the table's growth, and the table ends at the widest
// width (run with -race; make check does).
func TestAttachConcurrentWithSnapshot(t *testing.T) {
	r := NewRegistry()
	first := r.Attach(Labels{Structure: "first", Alloc: "Pool"}, 1)
	first[0].RQs.Inc()
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.Attach(Labels{Structure: "map"}, w)
			if len(sh) != w {
				t.Errorf("Attach(%d) returned %d shards", w, len(sh))
			}
			for _, s := range sh {
				s.Op(w)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	s := r.Snapshot()
	if len(s.Shards) != 8 || s.Shards[0].RQs != 1 || s.Shards[0].Ops != 8 || s.Shards[7].Ops != 1 {
		t.Errorf("shards %+v, want 8: shard 0 with 1 rq and 8 ops, shard 7 with 1 op", s.Shards)
	}
	if s.Structure != "map" || s.Pool == nil || s.WAL != nil {
		t.Errorf("structure %q, pool %v, WAL %v: want the last map's label, the first map's pool, no WAL", s.Structure, s.Pool, s.WAL)
	}
}

// Concurrent increments across counters, gauges and histograms must not
// lose updates (run with -race; make check does).
func TestConcurrentInstruments(t *testing.T) {
	const (
		workers = 8
		perG    = 10_000
	)
	var (
		c  Counter
		g  Gauge
		h  Histogram
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.ObserveNS(uint64(w*perG + i))
			}
		}(w)
	}
	// A snapshot taken while the writers run counts what its buckets hold.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if s := h.Snapshot(); s.Count != bucketSum(s) {
			t.Fatalf("mid-run snapshot counts %d, its buckets hold %d", s.Count, bucketSum(s))
		}
	}
	if got := c.Load(); got != workers*perG {
		t.Errorf("counter = %d, want %d", got, workers*perG)
	}
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != workers*perG || bucketSum(s) != s.Count {
		t.Errorf("histogram count = %d, buckets hold %d, want %d", s.Count, bucketSum(s), workers*perG)
	}
	if s.MaxNS != workers*perG-1 {
		t.Errorf("histogram max = %d, want %d", s.MaxNS, workers*perG-1)
	}
}

// bucketSum is the number of observations s's buckets hold.
func bucketSum(s HistSnapshot) uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	return n
}

// TestOpStripesMergeExactly: threads on more IDs than there are stripes
// record concurrently, several to a stripe; once they finish, the snapshot
// merges the stripes into an exact histogram.
func TestOpStripesMergeExactly(t *testing.T) {
	const (
		threads = 3 * opStripes
		perG    = 2000
		n       = threads * perG
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.ObserveOp(tid, OpUpdate, uint64(tid*perG+i))
			}
		}(tid)
	}
	wg.Wait()
	s := r.Snapshot()
	u := s.Ops["update"]
	if u.Count != n || u.SumNS != n*(n-1)/2 || u.MaxNS != n-1 {
		t.Fatalf("merged update histogram count=%d sum=%d max=%d, want %d, %d, %d",
			u.Count, u.SumNS, u.MaxNS, n, n*(n-1)/2, n-1)
	}
	if inBuckets := bucketSum(u); inBuckets != u.Count {
		t.Fatalf("buckets hold %d observations, count is %d", inBuckets, u.Count)
	}
	if c := s.Ops["contains"].Count + s.Ops["range-query"].Count; c != 0 {
		t.Fatalf("other classes counted %d observations", c)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Attach(Labels{Source: "Logical"}, 0)
	r.ObserveOp(0, OpUpdate, uint64(100*time.Nanosecond))
	r.ObserveOp(0, OpRange, uint64(time.Microsecond))
	r.ObserveOp(0, OpContains, uint64(50*time.Nanosecond))
	r.Source.Advances.Add(3)
	r.GC.BundleEntriesPruned.Add(2)
	r.GC.LimboRetired.Inc()
	r.GC.LimboLen.Add(1)

	var parsed Snapshot
	if err := json.Unmarshal([]byte(r.String()), &parsed); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if parsed.Source.Kind != "Logical" {
		t.Errorf("kind = %q, want Logical", parsed.Source.Kind)
	}
	if parsed.Source.Advances != 3 {
		t.Errorf("advances = %d, want 3", parsed.Source.Advances)
	}
	for _, class := range []string{"update", "range-query", "contains"} {
		op, ok := parsed.Ops[class]
		if !ok {
			t.Fatalf("snapshot missing op class %q", class)
		}
		if op.Count != 1 {
			t.Errorf("%s count = %d, want 1", class, op.Count)
		}
		if len(op.Buckets) == 0 {
			t.Errorf("%s has no buckets", class)
		}
	}
	if parsed.GC.BundleEntriesPruned != 2 || parsed.GC.LimboRetired != 1 || parsed.GC.LimboLen != 1 {
		t.Errorf("gc snapshot = %+v", parsed.GC)
	}
}

func TestOpClassString(t *testing.T) {
	if OpUpdate.String() != "update" || OpRange.String() != "range-query" ||
		OpContains.String() != "contains" || OpClass(99).String() != "unknown" {
		t.Fatal("OpClass labels changed; snapshot JSON shape is documented in README")
	}
}
