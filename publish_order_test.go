package tscds

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tscds/internal/citrus"
	"tscds/internal/core"
	"tscds/internal/skiplist"
)

// parkingSource parks the first caller of Advance after arm until release
// is closed, and reports every Peek on peeked (a Bundle range query takes
// its bound with one).
type parkingSource struct {
	core.Source
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	peeked  chan struct{}
}

func (p *parkingSource) Advance() core.TS {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Source.Advance()
}

func (p *parkingSource) Peek() core.TS {
	select {
	case p.peeked <- struct{}{}:
	default:
	}
	return p.Source.Peek()
}

// A Bundle update must not be reachable before it has read its timestamp
// (DESIGN §6): updater A parks at its Advance, inside its critical
// section. If A's node were already linked, the inserts B could hang
// their keys behind it, take earlier timestamps and return; a range query
// C started after that waits on A's pending entry, sees it labeled after
// its own bound, skips the edge and loses B's keys with it. With the
// timestamp read first, no B can return before A — A's node is not there
// to hang from, and the lock it would take instead is A's — which the test
// accepts after a timeout. Several Bs, because on the skip list one whose
// tower is taller than one level blocks on the head's lock either way.
func TestBundleUpdateInvisibleBeforeItsTimestamp(t *testing.T) {
	type bundled interface {
		Insert(th *core.Thread, key, val uint64) bool
		RangeQuery(th *core.Thread, lo, hi uint64, out []core.KV) []core.KV
	}
	for name, build := range map[string]func(core.Source, *core.Registry) bundled{
		"citrus":   func(s core.Source, r *core.Registry) bundled { return citrus.NewBundle(s, r) },
		"skiplist": func(s core.Source, r *core.Registry) bundled { return skiplist.New(s, r) },
		"lazylist": func(s core.Source, r *core.Registry) bundled { return skiplist.NewLazyBundle(s, r) },
	} {
		t.Run(name, func(t *testing.T) {
			const bs = 6
			src := &parkingSource{
				Source: core.New(core.Logical),
				parked: make(chan struct{}), release: make(chan struct{}),
				peeked: make(chan struct{}, 1),
			}
			reg := core.NewRegistry(bs + 2)
			m := build(src, reg)

			var wg sync.WaitGroup
			defer wg.Wait()
			src.armed.Store(true)
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Insert(reg.MustRegister(), 10, 10)
			}()
			<-src.parked

			returned := make(chan uint64, bs)
			for i := 0; i < bs; i++ {
				wg.Add(1)
				go func(key uint64) {
					defer wg.Done()
					if m.Insert(reg.MustRegister(), key, key) {
						returned <- key
					}
				}(uint64(20 + 10*i))
			}
			var early []uint64
			timeout := time.After(100 * time.Millisecond)
		settle:
			for len(early) < bs {
				select {
				case k := <-returned:
					early = append(early, k)
				case <-timeout:
					break settle
				}
			}
			if len(early) == 0 {
				close(src.release) // nobody got past A: the order under test holds
				return
			}

			// C takes its bound after the early Bs returned and before A
			// takes its timestamp.
			select {
			case <-src.peeked:
			default:
			}
			got := make(chan []core.KV)
			go func() { got <- m.RangeQuery(reg.MustRegister(), 0, 1000, nil) }()
			<-src.peeked
			close(src.release)
			seen := map[uint64]bool{}
			for _, kv := range <-got {
				seen[kv.Key] = true
			}
			for _, k := range early {
				if !seen[k] {
					t.Errorf("Insert(%d) returned before the range query began, which does not contain it", k)
				}
			}
		})
	}
}
