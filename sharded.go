package tscds

import (
	"fmt"

	"tscds/internal/core"
	"tscds/internal/obs"
)

// This file implements ShardedMap: a key-space-partitioned front end
// composing S per-shard structures (any structure/technique pair New
// accepts) behind ONE shared timestamp source and thread registry. Point
// operations touch only the owning shard — S independent structures mean
// S-way less structural contention — while range queries stay
// linearizable across shards by running the one snapshot-read protocol
// (core.Reader; DESIGN.md "Snapshot reads") with one part per shard: a
// single bound from the shared source, announced once in the shared
// registry, every shard owning a key block of the interval collected at
// it, in key order. The argument that (bound, collection) is a
// linearizable snapshot is the same per shard as in the unsharded
// structure, and the shared bound makes the union of the per-shard
// snapshots a snapshot of the whole map at that instant.
//
// The cost is that every range query re-serializes on the shared
// source: with a Logical source, sharding point updates S ways still
// funnels all range queries (and, for vCAS, all update labelings)
// through one fetch-and-add cache line, so range-heavy workloads
// flatten as S grows. A hardware (TSC) source has no shared line to
// contend on, so sharded TSC keeps scaling — the re-serialization
// cliff (EXPERIMENTS.md; the ledger's shard1/shard4 ladder rungs).

// ShardedMap is a Map partitioned across independent per-shard
// structures behind one shared timestamp source; see NewSharded.
type ShardedMap struct {
	wrap
	n int
}

var _ Map = (*ShardedMap)(nil)

// Shards reports the shard count.
func (m *ShardedMap) Shards() int { return m.n }

// NewSharded builds a Map whose key space is partitioned across shards
// independent copies of the (s, t) structure, all labeled from one
// shared timestamp source of cfg.Source's kind. Keys map to shards by
// block: the 256 keys of block b belong to shard b mod shards,
// so a dense or uniform key set still spreads over every shard while a
// short range query touches one or two. Point operations touch only the
// owning shard; RangeQuery and Scan remain linearizable across shards
// (one timestamp, every overlapping shard collected at it) and return
// ascending keys, as on a flat map. shards < 1 is a *ConfigError.
// Combination rules are exactly New's.
//
// cfg.MaxThreads bounds handles as in New: every shard shares the map's one
// registry, and a handle is one slot whichever shards it touches.
// cfg.Metrics additionally gets per-shard routing counts
// (Snapshot.Shards). cfg.Trace records what a flat map's recorder does —
// every shard reports its phases into the map's one recorder — plus the
// fan-out coordination cost of a range query as the "shard-fanout" phase.
func NewSharded(s Structure, t Technique, shards int, cfg Config) (*ShardedMap, error) {
	if shards < 1 {
		return nil, &ConfigError{"shards", fmt.Sprintf("%d is below 1", shards)}
	}
	sm := &ShardedMap{n: shards}
	// The WAL splits keys by the same blocks as the map, so each shard's
	// log is ordered by that shard's update serialization.
	err := sm.wrap.init(s, t, cfg, shards, func(src core.Source, reg *core.Registry) (inner, error) {
		return newShardedInner(s, t, cfg, src, reg, shards)
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}

// shardedInner composes the per-shard structures behind the facade's
// inner surface; keys are partitioned by block (core.PartOf).
type shardedInner struct {
	inners []inner
	stats  []*obs.ShardStats // per-shard routing counts; nil without metrics
	rd     *core.Reader      // the cross-shard fan-out over inners' readers
}

// newShardedInner builds shards (s, t) structures, all over src and reg,
// and the fan-out reader across them.
func newShardedInner(s Structure, t Technique, cfg Config, src core.Source, reg *core.Registry, shards int) (inner, error) {
	sh := &shardedInner{inners: make([]inner, shards)}
	if cfg.Metrics != nil {
		cfg.Metrics.EnsureShards(len(sh.inners))
		sh.stats = make([]*obs.ShardStats, len(sh.inners))
		for i := range sh.stats {
			sh.stats[i] = cfg.Metrics.Shard(i)
		}
	}
	readers := make([]*core.Reader, len(sh.inners))
	for i := range sh.inners {
		m, err := buildInner(s, t, cfg.Source, src, reg)
		if err != nil {
			return nil, err
		}
		sh.inners[i], readers[i] = m, m.Reader()
	}
	sh.rd = core.NewFanout(readers, sh.stats)
	return sh, nil
}

// SetHooks wires every shard and the fan-out. GC and pool counters
// aggregate across shards, and the ONE retention watermark is shared like
// the source: a single prune intent covers every shard's truncation and
// one CheckAt validates a cross-shard historical bound. The one recorder
// is shared too: a sampled operation records its phases in whichever
// shard runs them.
func (sh *shardedInner) SetHooks(h core.Hooks) {
	sh.rd.SetHooks(h)
	for _, m := range sh.inners {
		m.SetHooks(h)
	}
}

func (sh *shardedInner) Reader() *core.Reader { return sh.rd }

func (sh *shardedInner) shard(key uint64) int { return core.PartOf(key, len(sh.inners)) }

func (sh *shardedInner) Insert(th *core.Thread, key, val uint64) bool {
	i := sh.shard(key)
	if sh.stats != nil {
		sh.stats[i].Op(th.ID)
	}
	return sh.inners[i].Insert(th, key, val)
}

func (sh *shardedInner) Delete(th *core.Thread, key uint64) bool {
	i := sh.shard(key)
	if sh.stats != nil {
		sh.stats[i].Op(th.ID)
	}
	return sh.inners[i].Delete(th, key)
}

func (sh *shardedInner) Get(th *core.Thread, key uint64) (uint64, bool) {
	i := sh.shard(key)
	if sh.stats != nil {
		sh.stats[i].Op(th.ID)
	}
	return sh.inners[i].Get(th, key)
}

// Len sums the shards; quiescent use only, like the structures' own Len.
func (sh *shardedInner) Len() int {
	n := 0
	for _, m := range sh.inners {
		n += m.Len()
	}
	return n
}

// Drain forwards to every shard.
func (sh *shardedInner) Drain() {
	for _, m := range sh.inners {
		m.Drain()
	}
}
