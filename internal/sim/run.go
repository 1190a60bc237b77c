package sim

// StepKind enumerates the primitive actions a simulated operation is
// composed of.
type StepKind int

const (
	// StepWork is core-local computation (traversals, allocation); it is
	// scaled by the worker's SMT/NUMA factor.
	StepWork StepKind = iota
	// StepTSC is a hardware timestamp read: fixed latency, core-local.
	StepTSC
	// StepLineRead is a read of a contended cache line.
	StepLineRead
	// StepLineWrite is a modifying access (fetch-and-add) to a line.
	StepLineWrite
	// StepRWShared executes Hold while holding a RWLock in shared mode.
	StepRWShared
	// StepRWExcl executes Hold while holding a RWLock exclusively.
	StepRWExcl
	// StepPoolWrite writes one randomly chosen line from a hot-line pool
	// (structure-internal contention, e.g. skip-list towers).
	StepPoolWrite
)

// Step is one primitive action.
type Step struct {
	Kind StepKind
	Ns   float64 // StepWork/StepTSC: duration
	Line *Line
	Lock *RWLock
	Hold []Step  // body of RW-held sections
	Pool []*Line // hot-line pool for StepPoolWrite
}

// Work returns a local-work step.
func Work(ns float64) Step { return Step{Kind: StepWork, Ns: ns} }

// TSCRead returns a hardware timestamp read step.
func TSCRead(ns float64) Step { return Step{Kind: StepTSC, Ns: ns} }

// ReadLine returns a read access to line.
func ReadLine(l *Line) Step { return Step{Kind: StepLineRead, Line: l} }

// WriteLine returns a fetch-and-add access to line.
func WriteLine(l *Line) Step { return Step{Kind: StepLineWrite, Line: l} }

// PoolWrite returns a write to a random line in the pool.
func PoolWrite(pool []*Line) Step { return Step{Kind: StepPoolWrite, Pool: pool} }

// Shared returns a shared-mode critical section on lock.
func Shared(k *RWLock, hold ...Step) Step { return Step{Kind: StepRWShared, Lock: k, Hold: hold} }

// Excl returns an exclusive critical section on lock.
func Excl(k *RWLock, hold ...Step) Step { return Step{Kind: StepRWExcl, Lock: k, Hold: hold} }

// OpSpec is one operation class in a workload mix.
type OpSpec struct {
	Name   string
	Weight int // percentage weight in the mix
	Steps  []Step
}

// Config describes one simulated run.
type Config struct {
	Threads    int
	DurationNs float64
	Ops        []OpSpec
}

type worker struct {
	id, zone, core int
	factor         float64
	lineSeen       map[*Line]uint64
	rng            uint64
	ops            int64
}

func (w *worker) rand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// Run simulates the configuration and returns total throughput in
// Mops/s. Deterministic: identical inputs produce identical outputs.
func Run(m *Machine, cfg Config) float64 {
	e := &Engine{}
	total := 0
	for _, op := range cfg.Ops {
		total += op.Weight
	}
	if total == 0 {
		return 0
	}
	workers := make([]*worker, cfg.Threads)
	for i := range workers {
		p := m.place(i)
		w := &worker{
			id:       i,
			zone:     p.zone,
			core:     p.core,
			factor:   m.workFactor(i, cfg.Threads),
			lineSeen: map[*Line]uint64{},
			rng:      uint64(i)*0x9E3779B97F4A7C15 + 1,
		}
		workers[i] = w
		// Small deterministic stagger to avoid lockstep artifacts.
		e.At(float64(i)*0.7, func() { w.loop(e, m, cfg, total) })
	}
	e.Run(cfg.DurationNs)
	var ops int64
	for _, w := range workers {
		ops += w.ops
	}
	return float64(ops) / cfg.DurationNs * 1e3 // ops/ns -> Mops/s
}

func (w *worker) loop(e *Engine, m *Machine, cfg Config, totalWeight int) {
	if e.Now() >= cfg.DurationNs {
		return
	}
	pick := int(w.rand() % uint64(totalWeight))
	var spec *OpSpec
	for i := range cfg.Ops {
		if pick < cfg.Ops[i].Weight {
			spec = &cfg.Ops[i]
			break
		}
		pick -= cfg.Ops[i].Weight
	}
	w.exec(e, m, spec.Steps, 0, func() {
		w.ops++
		w.loop(e, m, cfg, totalWeight)
	})
}

func (w *worker) exec(e *Engine, m *Machine, steps []Step, k int, done func()) {
	if k == len(steps) {
		done()
		return
	}
	st := steps[k]
	next := func() { w.exec(e, m, steps, k+1, done) }
	switch st.Kind {
	case StepWork:
		e.After(st.Ns*w.factor, next)
	case StepTSC:
		e.After(st.Ns, next)
	case StepLineRead:
		st.Line.access(e, m, w, false, next)
	case StepLineWrite:
		st.Line.access(e, m, w, true, next)
	case StepPoolWrite:
		st.Pool[w.rand()%uint64(len(st.Pool))].access(e, m, w, true, next)
	case StepRWShared:
		st.Lock.acquire(e, m, w, false, func() {
			w.exec(e, m, st.Hold, 0, func() {
				st.Lock.release(e, m, w, false, next)
			})
		})
	case StepRWExcl:
		st.Lock.acquire(e, m, w, true, func() {
			w.exec(e, m, st.Hold, 0, func() {
				st.Lock.release(e, m, w, true, next)
			})
		})
	}
}
