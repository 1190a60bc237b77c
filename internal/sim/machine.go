package sim

// Machine describes the simulated host's topology and calibration
// constants (all times in nanoseconds). PaperMachine returns the
// evaluation machine of the paper; the constants are calibrated so the
// model reproduces the paper's headline ratios (95x Figure 1 top, ~2.6x
// Figure 1 bottom, 3-5.5x Figure 2) — see EXPERIMENTS.md.
type Machine struct {
	Zones        int
	CoresPerZone int
	SMTPerCore   int

	// Cache line transfer costs for the contended-line model.
	LineCached    float64 // re-read of an unmodified line this thread holds
	LineSameOwner float64 // consecutive accesses by the same thread
	LineIntraZone float64 // ownership transfer within a NUMA zone
	LineCrossZone float64 // ownership transfer across zones

	// Timestamp instruction costs.
	TSCFenced float64 // RDTSCP;LFENCE
	TSCBare   float64 // bare RDTSCP / RDTSC
	TSCCpuid  float64 // CPUID;RDTSC

	// Execution multipliers.
	SMTPenalty  float64 // work slowdown when the core's sibling is active
	NUMAPenalty float64 // work slowdown for threads outside zone 0
}

// PaperMachine models the 4x Intel Xeon Platinum 8160 testbed.
func PaperMachine() *Machine {
	return &Machine{
		Zones:        4,
		CoresPerZone: 24,
		SMTPerCore:   2,
		// Measured orders of magnitude for Skylake-SP coherence.
		LineCached:    2,
		LineSameOwner: 6,
		LineIntraZone: 45,
		LineCrossZone: 120,
		TSCFenced:     25,
		TSCBare:       7,
		TSCCpuid:      110,
		SMTPenalty:    1.45,
		NUMAPenalty:   1.08,
	}
}

// HWThreads returns the machine's total hardware thread count.
func (m *Machine) HWThreads() int { return m.Zones * m.CoresPerZone * m.SMTPerCore }

// placement is a worker's pinned position.
type placement struct {
	zone, core int // core is globally unique
	smt        int
}

// place pins worker i following the Figure 4 narrative: fill a zone's 24
// physical cores first, then their hyperthread siblings, then move to the
// next zone ("speedup when saturating all non hyper-threaded cores in
// the first NUMA zone, i.e. using no greater than 24 threads").
func (m *Machine) place(i int) placement {
	perZone := m.CoresPerZone * m.SMTPerCore
	zone := (i / perZone) % m.Zones
	within := i % perZone
	smt := within / m.CoresPerZone
	core := zone*m.CoresPerZone + within%m.CoresPerZone
	return placement{zone: zone, core: core, smt: smt}
}

// workFactor is the execution multiplier for a worker given the total
// worker count (determines whether its SMT sibling is active).
func (m *Machine) workFactor(i, totalThreads int) float64 {
	p := m.place(i)
	f := 1.0
	if p.zone != 0 {
		f *= m.NUMAPenalty
	}
	// The sibling hyperthread of core c in zone z is the worker at the
	// mirrored SMT slot; with cores-first placement, sibling pairs are
	// i and i +/- CoresPerZone within the zone block.
	var sibling int
	if p.smt == 0 {
		sibling = i + m.CoresPerZone
	} else {
		sibling = i - m.CoresPerZone
	}
	if sibling < totalThreads && sibling >= 0 {
		f *= m.SMTPenalty
	}
	return f
}
