package main

import (
	"fmt"
	"time"

	"tscds"
)

// The ladder: one worker runs the full-stack tape, historical reads served
// live, against ten configurations that each differ from the one below by
// exactly one option. A rung's self cost is its value minus the rung below.
var rungs = [...]string{
	"bare",      // the internal structure, no facade
	"wrap",      // tscds.New with nil sinks
	"metrics",   // + Config.Metrics
	"trace",     // + Config.Trace
	"pool",      // + Alloc: AllocPool
	"shard1",    // NewSharded with one shard
	"shard4",    // four shards
	"retention", // + Config.Retention
	"wal64",     // + Durability, SyncEvery 64
	"wal1",      // SyncEvery 1: every update waits for its group commit
}

// openRung builds rung i of the ladder for one arm. The returned close
// stops the durability layer of the rungs that have one.
func openRung(i int, a *arm) (kvOps, func() error, error) {
	if i == 0 {
		s, err := newBare(a)
		return s, func() error { return nil }, err
	}
	cfg := tscds.Config{Source: tscds.TSC}
	if i >= 2 {
		cfg.Metrics = tscds.NewMetrics()
	}
	if i >= 3 {
		cfg.Trace = &tscds.TraceConfig{}
	}
	if i >= 4 {
		cfg.Alloc = tscds.AllocPool
	}
	if i >= 7 {
		cfg.Retention = retentionTicks
	}
	if i >= 8 {
		cfg.Durability = &tscds.Durability{Dir: "wal", SyncEvery: syncEvery, FS: newMemFS()}
	}
	if i >= 9 {
		cfg.Durability.SyncEvery = 1
	}
	var m tscds.DurableMap
	if i < 5 {
		plain, err := tscds.New(a.structure, a.technique, cfg)
		if err != nil {
			return nil, nil, err
		}
		m = plain.(tscds.DurableMap)
	} else {
		shards := 1
		if i >= 6 {
			shards = fullStackShards
		}
		sharded, err := tscds.NewSharded(a.structure, a.technique, shards, cfg)
		if err != nil {
			return nil, nil, err
		}
		m = sharded
	}
	th, err := m.RegisterThread()
	if err != nil {
		return nil, nil, err
	}
	return &facadeOps{m, th}, m.Close, nil
}

// ladder measures ladder_ns.<rung>.<arm>: nanoseconds per operation of the
// full-stack tape on each rung.
func ladder(ms metricSet, seed uint64, sp *spans, parent int) error {
	w := theWorkload("full-stack")
	keys := prefillKeys(seed, w.keyRange)
	ladderOps := w.trialOps / 4
	for ai := range arms {
		a := &arms[ai]
		for i, name := range rungs {
			id := sp.begin("rung "+name+" "+a.name, parent, -1, 0)
			s, closeRung, err := openRung(i, a)
			if err != nil {
				return fmt.Errorf("rung %s %s: %w", name, a.name, err)
			}
			for _, k := range keys {
				s.update(k, true)
			}
			g := newRNG(seed, streamTape, uint64(ai)) // the same tape on every rung
			var buf []tscds.KV
			var start time.Time
			for n := -ladderOps / 4; n < ladderOps; n++ { // a quarter to warm up, then timed
				if n == 0 {
					start = time.Now()
				}
				kind, key, insert := w.mix.decode(g.next(), w.keyRange)
				switch kind {
				case opUpdate:
					s.update(key, insert)
				case opRQ, opRQAt:
					buf = s.rangeQuery(key, key+w.rqLen-1, buf[:0])
				default:
					s.contains(key)
				}
			}
			ns := float64(time.Since(start)) / float64(ladderOps)
			if err := closeRung(); err != nil {
				return fmt.Errorf("rung %s %s: %w", name, a.name, err)
			}
			ms.put("ladder_ns."+name+"."+a.name, ns, "ns")
			sp.end(id, "ops", ladderOps, "ns_per_op", ns)
		}
	}
	return nil
}
