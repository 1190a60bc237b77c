package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// Event is one decoded flight-recorder entry.
type Event struct {
	Thread int    `json:"thread"`
	Seq    uint64 `json:"seq"`
	AtNS   uint64 `json:"at_ns"`
	Kind   string `json:"kind"`
	Op     string `json:"op,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Value  uint64 `json:"value"`
}

// OpStatSnapshot aggregates one op class across all rings.
type OpStatSnapshot struct {
	Op     string  `json:"op"`
	Count  uint64  `json:"count"`
	SumNS  uint64  `json:"sum_ns"`
	MeanNS float64 `json:"mean_ns"`
}

// PhaseStatSnapshot aggregates one phase across all rings plus the
// shared block. Unit is "ns" for span phases and "events" for counts.
type PhaseStatSnapshot struct {
	Phase string  `json:"phase"`
	Unit  string  `json:"unit"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   uint64  `json:"max"`
}

// Snapshot is a point-in-time view of a Recorder: per-op and per-phase
// aggregates plus the surviving ring events. It is safe to take while
// writers are recording; torn or overwritten events are counted in
// Dropped rather than returned. The ops and the per-thread phases are
// the sampled operations' aggregates multiplied by SamplePeriod, which
// estimates every operation's; shared phases are exact, a phase's Max is
// the largest one recorded, and Recorded, Dropped and Events count the
// events actually written.
type Snapshot struct {
	DurationNS   uint64              `json:"duration_ns"`
	RingSize     int                 `json:"ring_size"`
	Threads      int                 `json:"threads"`
	SamplePeriod uint64              `json:"sample_period"`
	Ops          []OpStatSnapshot    `json:"ops"`
	Phases       []PhaseStatSnapshot `json:"phases"`
	Events       []Event             `json:"events,omitempty"`
	Recorded     uint64              `json:"recorded"`
	Dropped      uint64              `json:"dropped"`
}

// Snapshot captures the recorder's current state. events controls
// whether ring contents are decoded (aggregates are always included).
// Threads counts the threads that have a ring; the rest are skipped. A
// nil recorder yields the zero Snapshot.
func (r *Recorder) Snapshot(events bool) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		DurationNS:   tsc.Elapsed(r.start, r.clk.Now()),
		RingSize:     r.RingSize(),
		SamplePeriod: r.period,
	}
	var rings []*ring
	var tids []int
	for i := range r.rings {
		if rg := r.rings[i].Load(); rg != nil {
			rings, tids = append(rings, rg), append(tids, i)
		}
	}
	s.Threads = len(rings)
	for op := obs.OpClass(0); op < obs.NumOpClasses; op++ {
		var agg OpStatSnapshot
		agg.Op = op.String()
		for _, rg := range rings {
			st := &rg.ops[op]
			agg.Count += st.count.Load() * r.period
			agg.SumNS += st.sum.Load() * r.period
		}
		if agg.Count > 0 {
			agg.MeanNS = float64(agg.SumNS) / float64(agg.Count)
			s.Ops = append(s.Ops, agg)
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		agg := PhaseStatSnapshot{Phase: p.String(), Unit: p.Unit()}
		merge := func(st *phaseStat, scale uint64) {
			agg.Count += st.count.Load() * scale
			agg.Sum += st.sum.Load() * scale
			if m := st.max.Load(); m > agg.Max {
				agg.Max = m
			}
		}
		for _, rg := range rings {
			merge(&rg.phases[p], r.period)
		}
		merge(&r.shared[p], 1)
		if agg.Count > 0 {
			agg.Mean = float64(agg.Sum) / float64(agg.Count)
			s.Phases = append(s.Phases, agg)
		}
	}
	for j, rg := range rings {
		pos := rg.pos.Load()
		s.Recorded += pos
		if !events {
			continue
		}
		lo := uint64(0)
		if pos > r.mask+1 {
			lo = pos - (r.mask + 1)
		}
		for seq := lo; seq < pos; seq++ {
			sl := &rg.slots[seq&r.mask]
			got := sl.seq.Load()
			if got != seq+1 {
				// Torn mid-write or lapped by newer events.
				s.Dropped++
				continue
			}
			at := sl.at.Load()
			meta := sl.meta.Load()
			arg := sl.arg.Load()
			if sl.seq.Load() != seq+1 {
				s.Dropped++
				continue
			}
			ev := Event{
				Thread: tids[j],
				Seq:    seq,
				AtNS:   tsc.Elapsed(r.start, at),
				Kind:   Kind(meta >> 16).String(),
				Value:  arg,
			}
			switch Kind(meta >> 16) {
			case KindOpEnd:
				ev.Op = obs.OpClass(meta >> 8 & 0xff).String()
			case KindSpan, KindCount:
				ev.Phase = Phase(meta & 0xff).String()
			}
			s.Events = append(s.Events, ev)
		}
	}
	if events {
		sort.Slice(s.Events, func(a, b int) bool {
			if s.Events[a].AtNS != s.Events[b].AtNS {
				return s.Events[a].AtNS < s.Events[b].AtNS
			}
			if s.Events[a].Thread != s.Events[b].Thread {
				return s.Events[a].Thread < s.Events[b].Thread
			}
			return s.Events[a].Seq < s.Events[b].Seq
		})
	}
	return s
}

// String renders the aggregate snapshot (no ring events) as JSON, making
// the recorder directly servable as an expvar-style Var.
func (r *Recorder) String() string {
	if r == nil {
		return "{}"
	}
	b, err := json.Marshal(r.Snapshot(false))
	if err != nil {
		return "{}"
	}
	return string(b)
}

// JSON renders the snapshot as a single JSON line.
func (s Snapshot) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Format renders a human-readable, flame-style phase summary: span
// phases as horizontal bars scaled to the largest span's share of
// recorded time, count phases as rates per operation.
func (s Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d thread(s), ring %d, 1 op in %d sampled, %d event(s) recorded",
		s.Threads, s.RingSize, s.SamplePeriod, s.Recorded)
	if s.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped mid-snapshot)", s.Dropped)
	}
	b.WriteByte('\n')

	var totalOps uint64
	if len(s.Ops) > 0 {
		b.WriteString("  ops:\n")
		for _, o := range s.Ops {
			totalOps += o.Count
			fmt.Fprintf(&b, "    %-12s %10d ops  mean %s\n", o.Op, o.Count, obs.FormatNS(o.MeanNS))
		}
	}

	var spans, counts []PhaseStatSnapshot
	var maxSum uint64
	for _, p := range s.Phases {
		if p.Unit == "ns" {
			spans = append(spans, p)
			if p.Sum > maxSum {
				maxSum = p.Sum
			}
		} else {
			counts = append(counts, p)
		}
	}
	if len(spans) > 0 {
		b.WriteString("  phase spans (bar scaled to largest total):\n")
		const width = 30
		for _, p := range spans {
			bar := 0
			if maxSum > 0 {
				bar = int(p.Sum * width / maxSum)
			}
			if bar == 0 && p.Sum > 0 {
				bar = 1
			}
			fmt.Fprintf(&b, "    %-14s %-*s %10d× mean %s max %s\n",
				p.Phase, width, strings.Repeat("█", bar), p.Count,
				obs.FormatNS(p.Mean), obs.FormatNS(float64(p.Max)))
		}
	}
	if len(counts) > 0 {
		b.WriteString("  phase counts:\n")
		for _, p := range counts {
			rate := ""
			if totalOps > 0 {
				rate = fmt.Sprintf("  (%.3f/op)", float64(p.Sum)/float64(totalOps))
			}
			fmt.Fprintf(&b, "    %-14s %10d events in %d record(s), max %d%s\n",
				p.Phase, p.Sum, p.Count, p.Max, rate)
		}
	}
	if len(s.Ops) == 0 && len(s.Phases) == 0 {
		b.WriteString("  (no activity recorded)\n")
	}
	return b.String()
}
