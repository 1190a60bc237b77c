package core_test

import (
	"errors"
	"testing"

	"tscds/internal/core"
	"tscds/internal/ebrrq"
	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// switchOnce is a collector that fails its source over, once, while a
// range query is collecting under a bound: the Reader must discard the
// collection and run it again under a fresh bound.
type switchOnce struct {
	h     *tsc.Health
	src   core.Source
	calls int
}

func (c *switchOnce) RangeQueryAt(th *core.Thread, lo, hi uint64, s core.TS, out []core.KV) []core.KV {
	if c.calls++; c.calls == 1 {
		c.h.InjectBackstep(1 << 30)
		c.src.Advance()
	}
	return out
}

// Every source NewSource builds counts its own calls in the stats it was
// built with, and a counted source behaves like an uncounted one: same
// Actual, same address for lock-free EBR-RQ's DCSS, same refusal of a
// hardware counter there.
func TestCountEverySource(t *testing.T) {
	type row struct {
		name   string
		kind   core.Kind
		health bool // built over the test's Health
		// retries is how many times a failover under a collected bound
		// sends the query back: once when the source fails over on h.
		retries uint64
	}
	rows := []row{
		{name: "Logical", kind: core.Logical},
		{name: "RDTSCP", kind: core.TSC},
		{name: "Monotonic", kind: core.Monotonic},
		{name: "Adaptive", kind: core.Adaptive},
		{name: "NewAdaptive", kind: core.Adaptive, health: true, retries: 1},
	}

	counted := func(r row, h *tsc.Health) (core.Source, *obs.SourceStats) {
		if !r.health {
			h = nil
		}
		st := &obs.SourceStats{}
		src := core.NewSource(r.kind, h, st)
		if a, ok := src.(*core.AdaptiveSource); ok {
			a.SetFailbackAfter(-1)
		}
		return src, st
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Run("counts", func(t *testing.T) {
				src, st := counted(r, tsc.NewHealth(1))
				src.Advance()
				src.Advance()
				src.Advance()
				src.Peek()
				src.Peek()
				src.Snapshot()
				got := [...]uint64{st.Advances.Load(), st.Peeks.Load(), st.Snapshots.Load(), st.SnapshotRetries.Load()}
				if got != [...]uint64{3, 2, 1, 0} {
					t.Fatalf("advances, peeks, snapshots, retries = %v, want [3 2 1 0]", got)
				}
			})
			t.Run("actual", func(t *testing.T) {
				src, _ := counted(r, nil)
				if got, want := core.Actual(src), core.Actual(core.New(r.kind)); got != want {
					t.Fatalf("Actual counted = %v, uncounted = %v", got, want)
				}
			})
			t.Run("lock-free", func(t *testing.T) {
				src, _ := counted(r, nil)
				p, err := ebrrq.New(src, ebrrq.LockFree)
				l, logical := src.(*core.LogicalSource)
				if !logical {
					if !errors.Is(err, ebrrq.ErrRequiresAddress) {
						t.Fatalf("New(counted %v, LockFree) err = %v, want ErrRequiresAddress", r.name, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("New(counted logical, LockFree) err = %v", err)
				}
				src.Advance()
				var lb ebrrq.Label
				lb.Init()
				if got, want := p.Label(-1, &lb), l.Addr().Load(); got != want {
					t.Fatalf("DCSS labeled %d, the counter's address holds %d", got, want)
				}
			})
			t.Run("retry", func(t *testing.T) {
				h := tsc.NewHealth(1)
				src, st := counted(r, h)
				th := core.NewRegistry(1).MustRegister()
				rd := core.NewReader(src, core.QueryAdvances, &switchOnce{h: h, src: src}, core.Hooks{})
				rd.Live(th, 0, 10, nil)
				if got := st.SnapshotRetries.Load(); got != r.retries {
					t.Fatalf("SnapshotRetries = %d, want %d", got, r.retries)
				}
			})
		})
	}
}
