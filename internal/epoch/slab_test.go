//go:build go1.24

// The weak package arrived in Go 1.24; go.mod (and CI) stay at 1.22, whose
// toolchain skips this file.

package epoch

import (
	"runtime"
	"testing"
	"weak"

	"tscds/internal/core"
)

// Without a Recycle hook a pruned shell is never reused, and a slab is
// freed only once every shell in it is unreachable. release cuts each
// detached shell's link, so after everything is pruned only the slot's
// current slab (and at most one partly pruned one) keeps its items
// reachable; without the cut the newest slab's shells link back through
// every slab the thread ever filled. Alone, one thread advances the epoch
// every slabSize retires, so prunes would cut only at slab starts and hide
// a missing cut; extra advances every 41 retires and a retention floor
// trailing the newest item by 300 put the prune boundaries inside slabs,
// as other threads' advances and range queries do.
func TestPrunedSlabsAreCollected(t *testing.T) {
	const total = 20 * slabSize
	floor := uint64(0)
	m := NewManager(registry(1, core.Pending), func(it *item, _ core.TS) bool { return it.key >= floor }, nil, nil, nil)
	weaks := make([]weak.Pointer[item], 0, total)
	for i := uint64(0); i < total; i++ {
		it := &item{key: i}
		weaks = append(weaks, weak.Make(it))
		floor = max(i, 300) - 300
		m.Retire(0, it)
		if i%41 == 0 {
			m.tryAdvance()
		}
	}
	floor = total
	m.Drain(0)
	if n := m.LimboLen(); n != 0 {
		t.Fatalf("Drain left %d items in limbo", n)
	}
	runtime.GC()
	live := 0
	for _, w := range weaks {
		if w.Value() != nil {
			live++
		}
	}
	if live > 2*slabSize {
		t.Fatalf("%d of %d pruned items still reachable, want at most %d", live, total, 2*slabSize)
	}
	runtime.KeepAlive(m)
}
