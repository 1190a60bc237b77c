package tscds

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/lfbst"
)

// combo is a (structure, technique) pair.
type combo struct {
	S Structure
	T Technique
}

// documented is the package comment's support table: exactly the pairs New
// accepts, the lock-free EBR-RQ column on a Logical source only.
var documented = []combo{
	{BST, VCAS}, {BST, EBRRQ}, {BST, EBRRQLockFree},
	{Citrus, VCAS}, {Citrus, Bundle}, {Citrus, EBRRQ}, {Citrus, EBRRQLockFree},
	{SkipList, Bundle}, {SkipList, VCAS}, {SkipList, EBRRQ}, {SkipList, EBRRQLockFree},
	{LazyList, VCAS}, {LazyList, Bundle},
}

// allCombos enumerates the documented pairs every source supports: the
// table without its lock-free EBR-RQ column.
func allCombos() []combo {
	var out []combo
	for _, c := range documented {
		if c.T != EBRRQLockFree {
			out = append(out, c)
		}
	}
	return out
}

// TestNewFullCrossProduct exercises New over the complete
// Structure x Technique x Source cross-product, asserting that exactly
// the documented combinations succeed, each reporting the identity it was
// built with.
func TestNewFullCrossProduct(t *testing.T) {
	accepted := map[combo]bool{}
	for _, c := range documented {
		accepted[c] = true
	}
	for s := BST; s <= LazyList; s++ {
		for tech := VCAS; tech <= EBRRQLockFree; tech++ {
			for _, src := range []SourceKind{Logical, TSC, Monotonic} {
				want := accepted[combo{s, tech}] &&
					(tech != EBRRQLockFree || src == Logical)
				m, err := New(s, tech, Config{Source: src})
				if want && err != nil {
					t.Errorf("New(%v, %v, %v) rejected a documented combination: %v", s, tech, src, err)
				}
				if !want && err == nil {
					t.Errorf("New(%v, %v, %v) accepted an undocumented combination", s, tech, src)
				}
				if err == nil && (m.Structure() != s || m.Technique() != tech || m.Source() != src) {
					t.Errorf("New(%v, %v, %v): identity mismatch", s, tech, src)
				}
			}
		}
	}
}

// Regression for unbounded limbo growth: once updates cease, the EBR-RQ
// limbo lists must converge to empty — via read-only traffic (the
// amortized Unpin path) and via the explicit quiescent Drain.
func TestLimboConvergesAfterTrafficStops(t *testing.T) {
	for _, c := range []struct {
		S Structure
		T Technique
	}{{BST, EBRRQ}, {Citrus, EBRRQ}, {SkipList, EBRRQ}} {
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			met := NewMetrics()
			m, err := New(c.S, c.T, Config{Source: TSC, MaxThreads: 4, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			populate := func() {
				for k := uint64(0); k < 300; k++ {
					m.Insert(th, k, k)
				}
				for k := uint64(0); k < 300; k++ {
					m.Delete(th, k)
				}
				if met.GC.LimboLen.Load() == 0 {
					t.Fatal("deletes produced no limbo pressure; test is vacuous")
				}
			}
			// Updates cease; read-only traffic alone must drain limbo.
			populate()
			for i := 0; i < 2000 && met.GC.LimboLen.Load() > 0; i++ {
				m.Contains(th, uint64(i)%300)
			}
			if n := met.GC.LimboLen.Load(); n != 0 {
				t.Fatalf("limbo stuck at %d after read-only traffic", n)
			}
			// And the explicit quiescent drain empties it immediately.
			populate()
			m.Drain()
			if n := met.GC.LimboLen.Load(); n != 0 {
				t.Fatalf("limbo stuck at %d after Drain", n)
			}
		})
	}
}

// RegisterThread exhaustion surfaces as a clean error through the
// facade, and a released handle's slot is reusable.
func TestRegisterThreadExhaustionAndReuse(t *testing.T) {
	m, err := New(BST, VCAS, Config{MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterThread(); err == nil {
		t.Fatal("oversubscribed RegisterThread did not error")
	}
	th.Release()
	th2, err := m.RegisterThread()
	if err != nil {
		t.Fatalf("released slot not reusable: %v", err)
	}
	th2.Release()
}

// TestUseAfterReleasePanics: a released handle fails loudly instead of
// writing into the slot of the handle that reuses it. On every documented
// arm, flat and with 4 shards, a is released and b takes its slot; a range
// query through a must panic (its announcement slot is gone), and so must
// an update, which indexes a per-thread slot on every arm (the history
// techniques record the chains it extended in the thread's trim buffer).
// b keeps working.
func TestUseAfterReleasePanics(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, c := range documented {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v-%v-s%d", c.S, c.T, shards), func(t *testing.T) {
				var m Map
				var err error
				if shards == 0 {
					m, err = New(c.S, c.T, Config{MaxThreads: 2})
				} else {
					m, err = NewSharded(c.S, c.T, shards, Config{MaxThreads: 2})
				}
				if err != nil {
					t.Fatal(err)
				}
				a, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				a.Release()
				b, err := m.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				defer b.Release()
				if !panics(func() { m.RangeQuery(a, 0, 1000, nil) }) {
					t.Error("range query through a released handle did not panic")
				}
				if !panics(func() { m.Insert(a, 1, 1) }) {
					t.Error("update through a released handle did not panic")
				}
				if !m.Insert(b, 1000, 1) || !m.Contains(b, 1000) {
					t.Error("the handle reusing the released slot cannot insert")
				}
			})
		}
	}
}

// TestWrapLayout: the facade holds what it routes with and pointers to the
// layers that own every other fact (the source kind, what recovery found,
// the telemetry clock), so a map is 128 bytes, one allocator size class
// below the next.
func TestWrapLayout(t *testing.T) {
	if s := unsafe.Sizeof(wrap{}); s != 128 {
		t.Fatalf("wrap is %d bytes, want 128", s)
	}
}

// TestConstructorsRejectInvalidConfig: New and NewSharded share one
// validate, which refuses a Config it cannot honour with a
// *ConfigError naming the field — an unknown Alloc (2 was the retired arena
// mode) used to run as AllocGC while reporting the bogus mode, an unknown
// Source to panic inside core.New, a TSC read Figure 1 alone measures
// (bare RDTSC among them) to label a map, a negative MaxThreads to become the
// default, a BST over more threads than its update words name to panic.
// NewSharded refuses a shard count below 1, which it used to round
// up, the same way. Each constructor reports whether it built anything.
func TestConstructorsRejectInvalidConfig(t *testing.T) {
	// New and NewSharded close what they build: a row may open a WAL.
	constructors := map[string]func(Config) (bool, error){
		"New": func(cfg Config) (bool, error) {
			m, err := New(SkipList, Bundle, cfg)
			if m != nil {
				m.(DurableMap).Close()
			}
			return m != nil, err
		},
		"NewSharded": func(cfg Config) (bool, error) {
			m, err := NewSharded(SkipList, Bundle, 2, cfg)
			if m != nil {
				m.Close()
			}
			return m != nil, err
		},
	}
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Alloc", Config{Alloc: AllocPool + 1}},
		{"Alloc", Config{Alloc: -1, Metrics: NewMetrics()}},
		{"Source", Config{Source: Adaptive + 1}},
		{"Source", Config{Source: -1}},
		{"Source", Config{Source: core.TSCRaw}},
		{"Source", Config{Source: core.TSCUnfenced}},
		{"Source", Config{Source: core.TSCCPUID}},
		{"Durability", Config{Durability: &Durability{}}},
		{"MaxThreads", Config{MaxThreads: -1}},
		{"MaxThreads", Config{MaxThreads: 1, Durability: &Durability{Dir: t.TempDir()}}},
		{"", Config{Source: Adaptive, Health: NewTSCHealth(4)}},
		{"", Config{Metrics: NewMetrics()}},
		{"", Config{Trace: &TraceConfig{}}},
		{"", Config{Source: Adaptive, Alloc: AllocPool}},
		{"", Config{Durability: &Durability{Dir: t.TempDir()}}},
		{"", Config{MaxThreads: 2, Durability: &Durability{Dir: t.TempDir()}}},
		{"", Config{Retention: 1}},
	} {
		for name, build := range constructors {
			built, err := build(c.cfg)
			if c.field == "" {
				if err != nil {
					t.Errorf("%s(%+v): valid Config rejected: %v", name, c.cfg, err)
				}
				continue
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != c.field || built {
				t.Errorf("%s(%+v) built %v, %v; want a *ConfigError for field %s and nothing built", name, c.cfg, built, err, c.field)
			}
		}
	}
	for _, n := range []int{0, -1} {
		var ce *ConfigError
		if m, err := NewSharded(SkipList, Bundle, n, Config{}); !errors.As(err, &ce) || ce.Field != "shards" || m != nil {
			t.Errorf("NewSharded(shards %d) = %v, %v; want a *ConfigError for shards", n, m, err)
		}
	}
	// A BST's update words name at most lfbst.MaxThreads slots, under
	// either technique; the registry is refused before it is built.
	var ce *ConfigError
	for _, tech := range []Technique{VCAS, EBRRQ} {
		if m, err := New(BST, tech, Config{MaxThreads: lfbst.MaxThreads + 1}); !errors.As(err, &ce) || ce.Field != "MaxThreads" || m != nil {
			t.Errorf("New(BST, %v, MaxThreads %d) = %v, %v; want a *ConfigError for MaxThreads", tech, lfbst.MaxThreads+1, m, err)
		}
	}
	// An unsupported combination is not a Config fault.
	if _, err := New(BST, Bundle, Config{}); err == nil || errors.As(err, &ce) {
		t.Errorf("New(BST, Bundle) = %v, want an error that is no *ConfigError", err)
	}
}

// Lock-free EBR-RQ validates its labels by DCSS against the timestamp's
// address, which a hardware source has not: every structure refuses every
// such source, flat and sharded, with the cause wrapped so callers can
// program against it.
func TestLockFreeEBRRQRejectsTSC(t *testing.T) {
	for _, s := range []Structure{BST, Citrus, SkipList} {
		for _, src := range []SourceKind{TSC, Monotonic, Adaptive} {
			t.Run(fmt.Sprintf("%v/%v", s, src), func(t *testing.T) {
				cfg := Config{Source: src}
				if _, err := New(s, EBRRQLockFree, cfg); !errors.Is(err, ebrrq.ErrRequiresAddress) {
					t.Errorf("New err = %v, want ErrRequiresAddress", err)
				}
				if _, err := NewSharded(s, EBRRQLockFree, 2, cfg); !errors.Is(err, ebrrq.ErrRequiresAddress) {
					t.Errorf("NewSharded(2 shards) err = %v, want ErrRequiresAddress", err)
				}
			})
		}
	}
}

func TestBasicSemanticsEveryCombo(t *testing.T) {
	for _, c := range allCombos() {
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			m, err := New(c.S, c.T, Config{Source: TSC, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.RegisterThread()
			if err != nil {
				t.Fatal(err)
			}
			defer th.Release()
			// Key 0 must work through the facade even for structures
			// with a 0-key sentinel internally.
			if !m.Insert(th, 0, 7) || !m.Contains(th, 0) {
				t.Fatal("key 0 broken")
			}
			if v, ok := m.Get(th, 0); !ok || v != 7 {
				t.Fatalf("Get(0) = (%d,%v)", v, ok)
			}
			if !m.Insert(th, 10, 100) || m.Insert(th, 10, 200) {
				t.Fatal("insert semantics")
			}
			got := m.RangeQuery(th, 0, 20, nil)
			if len(got) != 2 || got[0].Key > got[1].Key {
				// BST/EBR results may be unsorted; sort before checking.
				sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			}
			if len(got) != 2 || got[0].Key != 0 || got[1].Key != 10 {
				t.Fatalf("range = %v", got)
			}
			if !m.Delete(th, 0) || m.Contains(th, 0) {
				t.Fatal("delete semantics")
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d", m.Len())
			}
			// Out-of-range keys are rejected, not wrapped.
			if m.Insert(th, MaxKey+1, 1) || m.Contains(th, MaxKey+1) {
				t.Fatal("key above MaxKey accepted")
			}
		})
	}
}

func TestConcurrentSmokeEveryCombo(t *testing.T) {
	for _, c := range allCombos() {
		c := c
		t.Run(fmt.Sprintf("%v-%v", c.S, c.T), func(t *testing.T) {
			n := 600
			if c.S == LazyList {
				n = 150 // O(n) traversals
			}
			m, err := New(c.S, c.T, Config{Source: TSC, MaxThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th, err := m.RegisterThread()
					if err != nil {
						t.Error(err)
						return
					}
					defer th.Release()
					base := uint64(g * 10_000)
					for i := uint64(0); i < uint64(n); i++ {
						m.Insert(th, base+i, i)
					}
					for i := uint64(0); i < uint64(n); i += 2 {
						m.Delete(th, base+i)
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				th, _ := m.RegisterThread()
				defer th.Release()
				for r := 0; r < 30; r++ {
					kvs := m.RangeQuery(th, 0, 30_000, nil)
					seen := map[uint64]bool{}
					for _, kv := range kvs {
						if seen[kv.Key] {
							t.Errorf("duplicate key %d in snapshot", kv.Key)
							return
						}
						seen[kv.Key] = true
					}
				}
			}()
			wg.Wait()
			if got := m.Len(); got != 3*n/2 {
				t.Fatalf("Len = %d, want %d", got, 3*n/2)
			}
		})
	}
}

func TestNowMonotone(t *testing.T) {
	prev := Now()
	for i := 0; i < 10000; i++ {
		now := Now()
		if now < prev {
			t.Fatalf("Now went backwards: %d then %d", prev, now)
		}
		prev = now
	}
	t.Logf("HardwareTimestampSupported = %v", HardwareTimestampSupported())
}

// Property: facade range queries agree with a model map, across combos.
func TestRangeAgainstModelProperty(t *testing.T) {
	for _, c := range allCombos() {
		c := c
		f := func(keys []uint16, lo16, span16 uint16) bool {
			m, err := New(c.S, c.T, Config{Source: Logical, MaxThreads: 2})
			if err != nil {
				return false
			}
			th, _ := m.RegisterThread()
			model := map[uint64]bool{}
			for i, k16 := range keys {
				if i > 60 {
					break
				}
				k := uint64(k16 % 512)
				if model[k] {
					m.Delete(th, k)
					delete(model, k)
				} else {
					m.Insert(th, k, k)
					model[k] = true
				}
			}
			lo := uint64(lo16 % 512)
			hi := lo + uint64(span16%64)
			got := m.RangeQuery(th, lo, hi, nil)
			want := 0
			for k := range model {
				if k >= lo && k <= hi {
					want++
				}
			}
			if len(got) != want {
				return false
			}
			for _, kv := range got {
				if !model[kv.Key] || kv.Key < lo || kv.Key > hi {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v/%v: %v", c.S, c.T, err)
		}
	}
}

func TestScanStreamsSortedAndStopsEarly(t *testing.T) {
	for _, c := range allCombos() {
		m, err := New(c.S, c.T, Config{Source: TSC, MaxThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		th, _ := m.RegisterThread()
		for _, k := range []uint64{9, 3, 7, 1, 5} {
			m.Insert(th, k, k*2)
		}
		var keys []uint64
		m.Scan(th, 2, 8, func(kv KV) bool {
			keys = append(keys, kv.Key)
			return true
		})
		want := []uint64{3, 5, 7}
		if len(keys) != len(want) {
			t.Fatalf("%v/%v: scan = %v", c.S, c.T, keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("%v/%v: scan order = %v", c.S, c.T, keys)
			}
		}
		count := 0
		m.Scan(th, 0, MaxKey, func(KV) bool {
			count++
			return count < 2
		})
		if count != 2 {
			t.Fatalf("%v/%v: fn called after returning false (visited %d)", c.S, c.T, count)
		}
		// An empty interval (hi < lo) never calls fn.
		m.Scan(th, 8, 2, func(kv KV) bool {
			t.Fatalf("%v/%v: empty interval called fn with %v", c.S, c.T, kv)
			return true
		})
		th.Release()
	}
}
