package tscds

import "fmt"

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
// structures behind one shared timestamp source; see NewSharded. It is the
// facade over one part per shard.
type ShardedMap struct {
	wrap
}

var _ Map = (*ShardedMap)(nil)

// Shards reports the shard count.
func (m *ShardedMap) Shards() int { return len(m.parts) }

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
// The WAL splits keys by the same blocks as the map, so each shard's log
// is ordered by that shard's update serialization.
func NewSharded(s Structure, t Technique, shards int, cfg Config) (*ShardedMap, error) {
	if shards < 1 {
		return nil, &ConfigError{"shards", fmt.Sprintf("%d is below 1", shards)}
	}
	sm := &ShardedMap{}
	if err := sm.init(s, t, cfg, shards); err != nil {
		return nil, err
	}
	return sm, nil
}
