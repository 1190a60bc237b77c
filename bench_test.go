// Native benchmarks regenerating the paper's tables and figures on this
// host, one benchmark family per figure; `go run ./cmd/reproduce` runs the
// simulated sweeps and the timed-trial native tables (see EXPERIMENTS.md).
// Which arms and U-RQ-C mixes a figure holds is read from internal/sim's
// figure table, as cmd/reproduce reads it. Shapes at low core counts are
// muted relative to the paper's 192-thread machine.
//
// Keys span 100k (prefilled to half) rather than the paper's 1M so the
// per-subbenchmark setup stays small; `reproduce fig N` defaults to the
// full range.
package tscds_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tscds"
	"tscds/internal/bench"
	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/history"
	"tscds/internal/sim"
)

const benchKeyRange = 100_000

var benchSources = []tscds.SourceKind{tscds.Logical, tscds.TSC}

// benchWorkload is the paper's mix over the benchmarks' key range.
func benchWorkload(u, rq, c int) bench.Workload {
	wl := bench.PaperWorkload(u, rq, c)
	wl.KeyRange = benchKeyRange
	return wl
}

// benchMap drives one (structure, technique, source, workload) arm. Keys
// are uniform over wl.KeyRange, or Zipfian with exponent zipfS when it is
// positive.
func benchMap(b *testing.B, s tscds.Structure, t tscds.Technique, src tscds.SourceKind, wl bench.Workload, zipfS float64) {
	m, err := tscds.New(s, t, tscds.Config{Source: src, MaxThreads: 256})
	if err != nil {
		b.Fatal(err)
	}
	setup, err := m.RegisterThread()
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range bench.PrefillKeys(wl.KeyRange) {
		m.Insert(setup, k, k)
	}
	setup.Release()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th, err := m.RegisterThread()
		if err != nil {
			b.Error(err)
			return
		}
		defer th.Release()
		r := uint64(0x9E3779B97F4A7C15)
		var zipf *rand.Zipf
		if zipfS > 0 {
			zipf = rand.NewZipf(rand.New(rand.NewSource(1)), zipfS, 1, wl.KeyRange-1)
		}
		buf := make([]tscds.KV, 0, 128)
		for pb.Next() {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			op := int(r % 100)
			key := (r >> 8) % wl.KeyRange
			if zipf != nil {
				key = zipf.Uint64()
			}
			switch {
			case op < wl.U:
				if r&(1<<63) != 0 {
					m.Insert(th, key, key)
				} else {
					m.Delete(th, key)
				}
			case op < wl.U+wl.RQ:
				buf = m.RangeQuery(th, key, key+wl.RQLen-1, buf[:0])
			default:
				m.Contains(th, key)
			}
		}
	})
}

// BenchmarkFig1Timestamp reproduces Figure 1: acquiring a timestamp from
// each source, bare (top panel) and with interleaved local work (bottom
// panel).
func BenchmarkFig1Timestamp(b *testing.B) {
	for _, panel := range []string{"top", "bottom"} {
		for _, r := range bench.Fig1Reads {
			b.Run(fmt.Sprintf("%s/%s", panel, r.Name), func(b *testing.B) {
				work := panel == "bottom"
				b.RunParallel(func(pb *testing.PB) {
					sink := uint64(0)
					for pb.Next() {
						sink += r.Read()
						if work {
							for i := 0; i < 100; i++ {
								sink = sink*2862933555777941757 + 3037000493
							}
						}
					}
					_ = sink
				})
			})
		}
	}
}

// benchFigure runs one figure of the table: every arm on every mix, on
// both sources.
func benchFigure(b *testing.B, id string) {
	f, ok := sim.FigureByID(id)
	if !ok {
		b.Fatalf("figure %q not in the table", id)
	}
	for _, a := range f.Arms {
		s, t, err := bench.ParseArm(a.Spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, mix := range f.Mixes {
			wl := benchWorkload(mix.U, mix.RQ, mix.C)
			if f.KeyRange != 0 {
				wl.KeyRange = f.KeyRange
			}
			for _, src := range benchSources {
				b.Run(fmt.Sprintf("%s/%s/%s", a.Name, wl.Label(), src), func(b *testing.B) {
					benchMap(b, s, t, src, wl, 0)
				})
			}
		}
	}
}

// BenchmarkFig2VCASBST reproduces Figure 2: vCAS on the lock-free BST.
func BenchmarkFig2VCASBST(b *testing.B) { benchFigure(b, "2") }

// BenchmarkFig3Citrus reproduces Figure 3: the Citrus tree under both
// fine-grained-labeling techniques.
func BenchmarkFig3Citrus(b *testing.B) { benchFigure(b, "3") }

// BenchmarkFig4CitrusEBRRQ reproduces Figure 4: EBR-RQ on the Citrus
// tree, where the retained readers-writer lock caps any TSC gain.
func BenchmarkFig4CitrusEBRRQ(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig5SkipListBundle reproduces Figure 5: bundling on the lazy
// skip list (gain only in update-heavy mixes).
func BenchmarkFig5SkipListBundle(b *testing.B) { benchFigure(b, "5") }

// BenchmarkLazyList reproduces the paper's omitted negative result: the
// lazy list's O(n) traversal hides the timestamp entirely.
func BenchmarkLazyList(b *testing.B) { benchFigure(b, "lazy") }

// BenchmarkAblationLabeling isolates the paper's §IV claim: timestamp
// labeling granularity decides how much tscds.TSC helps. Three labeling
// disciplines perform the same abstract task — acquire a timestamp and
// attach it to an object — under each source.
func BenchmarkAblationLabeling(b *testing.B) {
	for _, src := range benchSources {
		kind := core.Kind(src)
		// Coarse: EBR-RQ's (read, label) under a global RW lock.
		b.Run(fmt.Sprintf("coarse-rwlock/%s", src), func(b *testing.B) {
			p, _ := ebrrq.New(core.New(kind), ebrrq.LockBased)
			b.RunParallel(func(pb *testing.PB) {
				var l ebrrq.Label
				for pb.Next() {
					l.Init()
					p.Label(-1, &l)
				}
			})
		})
		// Medium: bundling's prepare/advance/finalize inside the op's
		// own lock scope (simulated by a local critical section).
		b.Run(fmt.Sprintf("medium-bundle/%s", src), func(b *testing.B) {
			s := core.New(kind)
			var bd history.Chain[*struct{}]
			bd.Init(&struct{}{})
			var mu chan struct{} = make(chan struct{}, 1)
			mu <- struct{}{}
			b.RunParallel(func(pb *testing.PB) {
				target := &struct{}{}
				for pb.Next() {
					<-mu
					e := bd.Prepare(target)
					bd.Finalize(e, s.Advance())
					if bd.Len() > 64 {
						bd.Truncate(core.Pending, history.Bundling)
					}
					mu <- struct{}{}
				}
			})
		})
		// Fine: vCAS's helping label — no atomicity between read and
		// label at all.
		b.Run(fmt.Sprintf("fine-vcas/%s", src), func(b *testing.B) {
			s := core.New(kind)
			var o history.Chain[uint64]
			o.Init(0)
			b.RunParallel(func(pb *testing.PB) {
				i := uint64(0)
				for pb.Next() {
					o.CompareAndSwap(s, o.Read(s), i)
					if i%64 == 0 {
						o.Truncate(core.Pending, history.VCAS)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkExtensionBSTEBRRQ covers the EBR-RQ-on-lock-free-tscds.BST pairing
// (the structure class the original EBR-RQ paper targets). The lock-free
// labeling variant exists only with a logical source — the paper's
// incompatibility result — so the sweep pairs lock-based logical/tscds.TSC
// with lock-free logical.
func BenchmarkExtensionBSTEBRRQ(b *testing.B) {
	wl := benchWorkload(10, 10, 80)
	arms := []struct {
		name string
		t    tscds.Technique
		src  tscds.SourceKind
	}{
		{"lock/tscds.Logical", tscds.EBRRQ, tscds.Logical},
		{"lock/RDTSCP", tscds.EBRRQ, tscds.TSC},
		{"lockfree/tscds.Logical", tscds.EBRRQLockFree, tscds.Logical},
	}
	for _, a := range arms {
		b.Run(a.name, func(b *testing.B) {
			benchMap(b, tscds.BST, a.t, a.src, wl, 0)
		})
	}
}

// BenchmarkAblationVersionGC quantifies version-chain truncation: the
// same vCAS churn with and without history reclamation. Without GC the
// chains grow with every write, demonstrating why the min-active-RQ
// registry matters for a versioned structure's memory behaviour.
func BenchmarkAblationVersionGC(b *testing.B) {
	for _, gc := range []bool{true, false} {
		name := "with-gc"
		if !gc {
			name = "no-gc"
		}
		b.Run(name, func(b *testing.B) {
			src := core.New(core.TSC)
			var o history.Chain[uint64]
			o.Init(0)
			for i := 0; i < b.N; i++ {
				o.Write(src, uint64(i))
				if gc && i%64 == 0 {
					o.Truncate(core.Pending, history.VCAS)
				}
			}
			b.ReportMetric(float64(o.Len()), "chain-len")
		})
	}
}

// BenchmarkZipfContention contrasts the paper's uniform keys with a
// Zipfian hot-key workload on the vCAS tscds.BST (extension): skew moves the
// bottleneck from the timestamp to the structure's hot paths.
func BenchmarkZipfContention(b *testing.B) {
	for _, zipfS := range []float64{0, 1.5} {
		for _, src := range benchSources {
			name := fmt.Sprintf("uniform/%s", src)
			if zipfS > 0 {
				name = fmt.Sprintf("zipf%.1f/%s", zipfS, src)
			}
			b.Run(name, func(b *testing.B) {
				benchMap(b, tscds.BST, tscds.VCAS, src, benchWorkload(20, 10, 70), zipfS)
			})
		}
	}
}

// BenchmarkOmittedSkipList reproduces the combinations the paper built
// but left out of its figures — skip list with vCAS and with EBR-RQ —
// where no tscds.TSC gain was observed.
func BenchmarkOmittedSkipList(b *testing.B) {
	wl := benchWorkload(10, 10, 80)
	for _, tech := range []tscds.Technique{tscds.VCAS, tscds.EBRRQ} {
		for _, src := range benchSources {
			b.Run(fmt.Sprintf("%s/%s", tech, src), func(b *testing.B) {
				benchMap(b, tscds.SkipList, tech, src, wl, 0)
			})
		}
	}
}

// BenchmarkAblationRQLength varies the range query span around the
// paper's fixed 100 keys: longer queries amortize the timestamp
// acquisition over more collection work, shrinking the tscds.TSC advantage —
// the same mechanism that makes the lazy list a no-gain case.
func BenchmarkAblationRQLength(b *testing.B) {
	for _, rqLen := range []uint64{10, 100, 1000} {
		for _, src := range benchSources {
			b.Run(fmt.Sprintf("len%d/%s", rqLen, src), func(b *testing.B) {
				wl := benchWorkload(10, 20, 70)
				wl.RQLen = rqLen
				benchMap(b, tscds.BST, tscds.VCAS, src, wl, 0)
			})
		}
	}
}
