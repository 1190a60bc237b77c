package linearize

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tscds"
)

// tsStamp is one captured past timestamp: the value Now() returned and
// the wall-clock interval bracketing the call. A historical read at ts
// observes the map's state at some instant of [inv, ret].
type tsStamp struct {
	ts       uint64
	inv, ret int64
}

// stampEvery is how often (in ops) a worker refreshes its stamp ring,
// and stampRing how many stamps it retains. Eviction is random, so the
// ring holds a spread of ages: fresh stamps exercise recent history,
// stale ones cross adaptive switches and, under tight retention, the
// ErrTruncatedHistory path.
const (
	stampEvery = 8
	stampRing  = 32
)

// value encodes a globally unique inserted value: thread in the high
// bits, a per-thread sequence number below. Bit 63 is never set, which
// the fault injector exploits to fabricate impossible observations.
func value(tid int, seq uint64) uint64 {
	return uint64(tid+1)<<40 | (seq & (1<<40 - 1))
}

// Run drives m with cfg.Workers goroutines for cfg.Ops operations each
// and returns the recorded history. The map must have been constructed
// with capacity for Workers+1 thread handles; registry exhaustion is
// surfaced as an error, never a panic.
func Run(m tscds.Map, cfg Config) (*History, error) {
	cfg = cfg.withDefaults()

	// Register every handle up front so oversubscription fails fast.
	pref, err := m.RegisterThread()
	if err != nil {
		return nil, fmt.Errorf("linearize: registering prefill thread: %w", err)
	}
	defer pref.Release()
	ths := make([]*tscds.Thread, cfg.Workers)
	for i := range ths {
		th, err := m.RegisterThread()
		if err != nil {
			for _, t := range ths[:i] {
				t.Release()
			}
			return nil, fmt.Errorf("linearize: registering worker %d of %d: %w",
				i+1, cfg.Workers, err)
		}
		ths[i] = th
	}
	defer func() {
		for _, t := range ths {
			t.Release()
		}
	}()

	base := time.Now()
	stamp := func() int64 { return int64(time.Since(base)) }

	h := &History{Cfg: cfg, Threads: make([][]Event, cfg.Workers+1)}

	// Sequential prefill, recorded like any other events so the checker
	// needs no special initial state.
	prng := rand.New(rand.NewSource(cfg.Seed))
	prefillTid := cfg.Workers
	var pseq uint64
	plog := make([]Event, 0, cfg.Prefill)
	for inserted := 0; inserted < cfg.Prefill; {
		key := prng.Uint64() % cfg.KeyRange * cfg.KeyStride
		pseq++
		v := value(prefillTid, pseq)
		ev := Event{Op: OpInsert, Thread: prefillTid, Key: key, Val: v}
		ev.Inv = stamp()
		ev.OK = m.Insert(pref, key, v)
		ev.Ret = stamp()
		plog = append(plog, ev)
		if ev.OK {
			inserted++
		}
	}
	h.Threads[prefillTid] = plog

	// Unexpected historical-read errors (ErrHistoryUnsupported on a cell
	// the caller claimed retains history, or a future-timestamp refusal
	// of a stamp that is necessarily in the past) are harness bugs, not
	// linearizability violations: the first one aborts the run.
	var (
		runErr  error
		errOnce sync.Once
	)
	fail := func(err error) { errOnce.Do(func() { runErr = err }) }

	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Workers; tid++ {
		wg.Add(1)
		go func(tid int, th *tscds.Thread) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(tid) + 1))
			log := make([]Event, 0, cfg.Ops)
			var seq uint64
			var stamps []tsStamp
			capture := func() {
				inv := stamp()
				ts := m.Now()
				ret := stamp()
				st := tsStamp{ts: ts, inv: inv, ret: ret}
				if len(stamps) < stampRing {
					stamps = append(stamps, st)
				} else {
					stamps[rng.Intn(len(stamps))] = st
				}
			}
			if cfg.HistPct > 0 {
				capture()
			}
			for i := 0; i < cfg.Ops; i++ {
				if cfg.Midpoint != nil && tid == 0 && i == cfg.Ops/2 {
					cfg.Midpoint()
				}
				if cfg.HistPct > 0 && i%stampEvery == 0 {
					capture()
				}
				p := rng.Intn(100)
				key := rng.Uint64() % cfg.KeyRange * cfg.KeyStride
				var ev Event
				ev.Thread = tid
				switch {
				case p < cfg.InsertPct:
					seq++
					v := value(tid, seq)
					ev.Op, ev.Key, ev.Val = OpInsert, key, v
					ev.Inv = stamp()
					ev.OK = m.Insert(th, key, v)
					ev.Ret = stamp()
				case p < cfg.InsertPct+cfg.DeletePct:
					ev.Op, ev.Key = OpDelete, key
					ev.Inv = stamp()
					ev.OK = m.Delete(th, key)
					ev.Ret = stamp()
				case p < cfg.InsertPct+cfg.DeletePct+cfg.RangePct:
					lo := rng.Uint64() % cfg.KeyRange * cfg.KeyStride
					hi := lo + rng.Uint64()%cfg.RangeSpan*cfg.KeyStride
					ev.Op, ev.Lo, ev.Hi = OpRange, lo, hi
					ev.Inv = stamp()
					kvs := m.RangeQuery(th, lo, hi, nil)
					ev.Ret = stamp()
					if cfg.FaultRate > 0 && rng.Float64() < cfg.FaultRate {
						kvs = corrupt(rng, kvs, lo)
					}
					ev.KVs = kvs
				case p < cfg.InsertPct+cfg.DeletePct+cfg.RangePct+cfg.GetPct:
					ev.Op, ev.Key = OpGet, key
					ev.Inv = stamp()
					ev.Val, ev.OK = m.Get(th, key)
					ev.Ret = stamp()
				case p < cfg.InsertPct+cfg.DeletePct+cfg.RangePct+cfg.GetPct+cfg.HistPct:
					st := stamps[rng.Intn(len(stamps))]
					ev.TS, ev.TSInv, ev.TSRet = st.ts, st.inv, st.ret
					var err error
					if rng.Intn(2) == 0 {
						ev.Op, ev.Key = OpGetAt, key
						ev.Inv = stamp()
						ev.Val, ev.OK, err = m.GetAt(th, key, st.ts)
						ev.Ret = stamp()
					} else {
						lo := rng.Uint64() % cfg.KeyRange * cfg.KeyStride
						hi := lo + rng.Uint64()%cfg.RangeSpan*cfg.KeyStride
						ev.Op, ev.Lo, ev.Hi = OpRangeAt, lo, hi
						ev.Inv = stamp()
						var kvs []tscds.KV
						kvs, err = m.RangeQueryAt(th, lo, hi, st.ts, nil)
						ev.Ret = stamp()
						if err == nil && cfg.FaultRate > 0 && rng.Float64() < cfg.FaultRate {
							kvs = corrupt(rng, kvs, lo)
						}
						ev.KVs = kvs
					}
					if err != nil {
						if !errors.Is(err, tscds.ErrTruncatedHistory) {
							fail(fmt.Errorf("linearize: worker %d historical read at ts %d: %w",
								tid, st.ts, err))
							return
						}
						ev.Trunc = true
						ev.OK, ev.Val, ev.KVs = false, 0, nil
					}
				default:
					ev.Op, ev.Key = OpContains, key
					ev.Inv = stamp()
					ev.OK = m.Contains(th, key)
					ev.Ret = stamp()
				}
				log = append(log, ev)
			}
			h.Threads[tid] = log
		}(tid, ths[tid])
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return h, nil
}

// corrupt perturbs a recorded range-query result: it flips bit 63 of one
// observed value, or fabricates a phantom pair when the result is empty.
// Harness values never set bit 63, so either mutation is impossible in a
// real history and a working checker must flag it.
func corrupt(rng *rand.Rand, kvs []tscds.KV, lo uint64) []tscds.KV {
	out := append([]tscds.KV(nil), kvs...)
	if len(out) == 0 {
		return append(out, tscds.KV{Key: lo, Val: 1 << 63})
	}
	out[rng.Intn(len(out))].Val ^= 1 << 63
	return out
}

// RunAndCheck runs the harness and immediately checks the history,
// returning the history for logging alongside any violation.
func RunAndCheck(m tscds.Map, cfg Config) (*History, error) {
	h, err := Run(m, cfg)
	if err != nil {
		return nil, err
	}
	return h, Check(h)
}
