package obs

// WALStats counts durability-layer traffic for Maps built with
// Config.Durability: append-path volume, group-commit batching and
// fsync amortization (Appends/Batches is the achieved commit-group size),
// transient-error retries, snapshot flushes, and what recovery loaded at
// open. A nil *WALStats disables reporting, like every other block in
// this package.
type WALStats struct {
	Appends, AppendedBytes, Batches, Fsyncs, Retries, Errors       Counter
	SnapshotFlushes, SnapshotFailures, SnapshotKeys, SnapshotBytes Counter
	SegmentsPruned, RecoveredKeys, RecoveredRecords, TornSkipped   Counter
}

// WALSnapshot is a point-in-time copy of WALStats.
type WALSnapshot struct {
	// Mode is the durability mode label ("sync" or "batched(N)").
	Mode             string `json:"mode,omitempty" prom:"label"`
	Appends          uint64 `json:"appends" help:"WAL records appended."`
	AppendedBytes    uint64 `json:"appended_bytes" help:"Encoded bytes appended to the WAL."`
	Batches          uint64 `json:"batches" help:"Group-commit write batches."`
	Fsyncs           uint64 `json:"fsyncs" help:"Successful fsyncs (segment and snapshot files)."`
	Retries          uint64 `json:"retries,omitempty" help:"Transient write/fsync errors absorbed by retry-with-backoff."`
	Errors           uint64 `json:"errors,omitempty" help:"Persistent WAL failures (sticky; durability broken, map serving from memory)."`
	SnapshotFlushes  uint64 `json:"snapshot_flushes" help:"Whole-map snapshot flushes."`
	SnapshotFailures uint64 `json:"snapshot_failures,omitempty" help:"Snapshot flush attempts that failed."`
	SnapshotKeys     uint64 `json:"snapshot_keys" help:"Keys written by snapshot flushes."`
	SnapshotBytes    uint64 `json:"snapshot_bytes" help:"Bytes written by snapshot flushes."`
	SegmentsPruned   uint64 `json:"segments_pruned,omitempty" help:"Sealed segments removed once covered by a snapshot."`
	RecoveredKeys    uint64 `json:"recovered_keys,omitempty" help:"Snapshot pairs loaded by recovery at open."`
	RecoveredRecords uint64 `json:"recovered_records,omitempty" help:"WAL records replayed by recovery at open."`
	TornSkipped      uint64 `json:"torn_skipped,omitempty" help:"Torn tail records discarded during recovery."`
}
