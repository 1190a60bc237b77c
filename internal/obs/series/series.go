// Package series is the background time-series collector of the
// telemetry pipeline: a fixed-retention ring of periodic registry +
// TSC-health snapshots with per-interval rate computation, servable on
// /series and feeding an obs.Watchdog one observation per tick. It is
// the one place that may import both obs and tsc (obs itself stays
// dependency-free), converting tsc health snapshots into the neutral
// obs.HealthFacts the watchdog rules consume.
package series

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tscds/internal/obs"
	"tscds/internal/tsc"
)

// DefaultInterval is the collection period when Config.Interval is zero.
const DefaultInterval = time.Second

// DefaultRetention is the ring capacity when Config.Retention is zero:
// ten minutes of points at the default interval.
const DefaultRetention = 600

// maxRetention bounds the ring so a typo'd retention cannot pin
// gigabytes of snapshots.
const maxRetention = 4096

// Config wires a Collector to its sources. All getters are re-resolved
// every tick, so a benchmark that re-points its registry per arm just
// swaps what the getter returns; the collector detects the swap and
// suppresses the torn rate window.
type Config struct {
	// Interval between samples (default DefaultInterval).
	Interval time.Duration
	// Retention is the ring capacity in points (default DefaultRetention,
	// capped at 4096).
	Retention int
	// Label, when non-nil, names the current workload/arm; it is stamped
	// on every point so one stream can span a multi-arm run.
	Label func() string
	// Metrics returns the current registry (nil skips metrics).
	Metrics func() *obs.Registry
	// Health returns the current TSC health monitor (nil skips health).
	Health func() *tsc.Health
	// Watchdog, when non-nil, receives one Observation per tick.
	Watchdog *obs.Watchdog
}

// Rates are the per-interval derivatives between two successive points
// sharing the same registry. Nil on the first point of a stream and on
// any point whose registry or health monitor was swapped since the
// previous one.
type Rates struct {
	IntervalMS            int64              `json:"interval_ms"`
	OpsPerSec             map[string]float64 `json:"ops_per_sec,omitempty"`
	TotalOpsPerSec        float64            `json:"total_ops_per_sec"`
	AdvancesPerSec        float64            `json:"advances_per_sec"`
	SnapshotsPerSec       float64            `json:"snapshots_per_sec"`
	SnapshotRetriesPerSec float64            `json:"snapshot_retries_per_sec,omitempty"`
	LimboGrowthPerSec     float64            `json:"limbo_growth_per_sec,omitempty"`
	// PoolHitRate is the interval hit fraction (hits/(hits+misses)),
	// -1 when no pool traffic occurred.
	PoolHitRate      float64 `json:"pool_hit_rate,omitempty"`
	WALAppendsPerSec float64 `json:"wal_appends_per_sec,omitempty"`
	WALFsyncsPerSec  float64 `json:"wal_fsyncs_per_sec,omitempty"`
}

// Point is one retained sample: the arm's label, when it was taken, the
// registry snapshot and health at that moment, and the rates since the
// previous point.
type Point struct {
	Label     string              `json:"label,omitempty"`
	AtUnixMS  int64               `json:"at_unix_ms"`
	ElapsedMS int64               `json:"elapsed_ms"`
	Metrics   obs.Snapshot        `json:"metrics"`
	Health    *tsc.HealthSnapshot `json:"health,omitempty"`
	Rates     *Rates              `json:"rates,omitempty"`
}

// Collector periodically samples the configured sources into a
// fixed-retention ring. Start/Stop bracket the background goroutine;
// Sample may also be called directly (tests, final flush).
type Collector struct {
	cfg      Config
	interval time.Duration
	cap      int

	mu      sync.Mutex
	points  []Point
	dropped uint64
	start   time.Time
	// prev* track identity across ticks so rates are only computed
	// between snapshots of the SAME registry/health pair.
	prevReg    *obs.Registry
	prevHealth *tsc.Health
	prevPoint  *Point

	stop chan struct{}
	done chan struct{}
}

// New builds a collector (not yet running).
func New(cfg Config) *Collector {
	iv := cfg.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	n := cfg.Retention
	if n <= 0 {
		n = DefaultRetention
	}
	if n > maxRetention {
		n = maxRetention
	}
	return &Collector{cfg: cfg, interval: iv, cap: n, start: time.Now()}
}

// Start launches the background sampling loop. Nil-safe; starting twice
// is a no-op until the first loop is stopped.
func (c *Collector) Start() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Sample()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the loop and takes one final sample so the last partial
// interval is never lost. Nil-safe, idempotent.
func (c *Collector) Stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	c.Sample()
}

// Sample takes one point now: snapshot the sources, compute rates
// against the previous same-identity point, append to the ring, and
// feed the watchdog. Nil-safe.
func (c *Collector) Sample() {
	if c == nil {
		return
	}
	now := time.Now()
	var reg *obs.Registry
	if c.cfg.Metrics != nil {
		reg = c.cfg.Metrics()
	}
	var health *tsc.Health
	if c.cfg.Health != nil {
		health = c.cfg.Health()
	}

	p := Point{
		AtUnixMS:  now.UnixMilli(),
		ElapsedMS: now.Sub(c.start).Milliseconds(),
	}
	if c.cfg.Label != nil {
		p.Label = c.cfg.Label()
	}
	if reg != nil {
		p.Metrics = reg.Snapshot()
	}
	var hs *tsc.HealthSnapshot
	if health != nil {
		s := health.Snapshot()
		// Drop the bulky per-thread blocks from the retained ring; the
		// watchdog and dashboard consume only the scalar fields.
		s.Threads, s.Probes = nil, nil
		hs = &s
		p.Health = hs
	}

	c.mu.Lock()
	sameIdentity := reg == c.prevReg && health == c.prevHealth && c.prevPoint != nil
	if sameIdentity && reg != nil {
		p.Rates = computeRates(c.prevPoint, &p)
	}
	swapped := c.prevPoint != nil && !sameIdentity
	c.prevReg, c.prevHealth = reg, health
	prev := p
	c.prevPoint = &prev
	if len(c.points) >= c.cap {
		c.points = append(c.points[:0], c.points[1:]...)
		c.dropped++
	}
	c.points = append(c.points, p)
	wd := c.cfg.Watchdog
	c.mu.Unlock()

	if wd != nil {
		if swapped {
			// Deltas across a registry/health swap are garbage; restart
			// the watchdog baseline.
			wd.Reset()
		}
		obsv := obs.Observation{At: now, Metrics: p.Metrics}
		if hs != nil {
			obsv.HasHealth = true
			obsv.Health = obs.HealthFacts{
				State:            hs.State,
				Degraded:         health.Degraded(),
				CrossRegressions: hs.CrossRegressions,
				InjectedFaults:   hs.InjectedFaults,
				SourceStalls:     hs.SourceStalls,
				SourceSwitches:   hs.SourceSwitches,
				SourceFailbacks:  hs.SourceFailbacks,
			}
		}
		wd.Observe(obsv)
	}
}

// computeRates derives the interval rates between two successive
// same-registry points.
func computeRates(prev, cur *Point) *Rates {
	dms := cur.AtUnixMS - prev.AtUnixMS
	if dms <= 0 {
		return nil
	}
	secs := float64(dms) / 1e3
	d := func(c, p uint64) float64 {
		if c < p {
			return 0
		}
		return float64(c-p) / secs
	}
	r := &Rates{IntervalMS: dms}
	for class, cs := range cur.Metrics.Ops {
		ps := prev.Metrics.Ops[class]
		rate := d(cs.Count, ps.Count)
		if rate > 0 {
			if r.OpsPerSec == nil {
				r.OpsPerSec = map[string]float64{}
			}
			r.OpsPerSec[class] = rate
		}
		r.TotalOpsPerSec += rate
	}
	r.AdvancesPerSec = d(cur.Metrics.Source.Advances, prev.Metrics.Source.Advances)
	r.SnapshotsPerSec = d(cur.Metrics.Source.Snapshots, prev.Metrics.Source.Snapshots)
	r.SnapshotRetriesPerSec = d(cur.Metrics.Source.SnapshotRetries, prev.Metrics.Source.SnapshotRetries)
	r.LimboGrowthPerSec = float64(cur.Metrics.GC.LimboLen-prev.Metrics.GC.LimboLen) / secs
	r.PoolHitRate = -1
	if cp, pp := cur.Metrics.Pool, prev.Metrics.Pool; cp != nil && pp != nil {
		hits := satSub(cp.Hits, pp.Hits)
		misses := satSub(cp.Misses, pp.Misses)
		if hits+misses > 0 {
			r.PoolHitRate = float64(hits) / float64(hits+misses)
		}
	}
	if cw, pw := cur.Metrics.WAL, prev.Metrics.WAL; cw != nil && pw != nil {
		r.WALAppendsPerSec = d(cw.Appends, pw.Appends)
		r.WALFsyncsPerSec = d(cw.Fsyncs, pw.Fsyncs)
	}
	return r
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Points returns a copy of the retained points, oldest first. Nil-safe.
func (c *Collector) Points() []Point {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Point(nil), c.points...)
}

// page is the /series JSON shape.
type page struct {
	IntervalMS int64   `json:"interval_ms"`
	Retention  int     `json:"retention"`
	Dropped    uint64  `json:"dropped"`
	Points     []Point `json:"points"`
}

func (c *Collector) page(last int) page {
	c.mu.Lock()
	pts := append([]Point(nil), c.points...)
	dropped := c.dropped
	c.mu.Unlock()
	if last > 0 && last < len(pts) {
		pts = pts[len(pts)-last:]
	}
	if pts == nil {
		pts = []Point{}
	}
	return page{
		IntervalMS: c.interval.Milliseconds(),
		Retention:  c.cap,
		Dropped:    dropped,
		Points:     pts,
	}
}

// String renders the ring as JSON, making the collector registrable as
// an obs.Var under the conventional name "series".
func (c *Collector) String() string {
	if c == nil {
		return "{}"
	}
	b, err := json.Marshal(c.page(0))
	if err != nil {
		return "{}"
	}
	return string(b)
}

// ServeHTTP serves the ring; ?last=N trims to the newest N points.
func (c *Collector) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if c == nil {
		fmt.Fprintln(w, "{}")
		return
	}
	last := 0
	if n, err := strconv.Atoi(req.URL.Query().Get("last")); err == nil && n > 0 {
		last = n
	}
	b, err := json.Marshal(c.page(last))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(b)
	w.Write([]byte("\n"))
}
