// Package wal is the durability layer behind Config.Durability: a
// per-shard append-only write-ahead log on the update path, periodic
// whole-map snapshots taken at a single source timestamp (RangeQueryAt
// makes them zero-stop-the-world), and recovery = newest valid snapshot
// + replay of the WAL records it does not cover.
//
// Log.Commit runs each update under its stream's lock and, when it
// succeeds in memory, buffers one fixed-size record carrying the op's
// source timestamp and a CRC32C, so a stream's record order is its
// updates' linearization order. Records are group-committed without a
// goroutine of the log's own: the first committer to wait for its
// acknowledgment while no flush is in progress writes and fsyncs
// everything buffered so far; committers that arrive meanwhile wait and
// are covered by the next such leader's batch, so concurrent updaters
// share fsyncs (bounded latency, not one fsync per op) and a lone
// updater pays no hand-off. Log.Checkpoint owns the snapshot sequence
// (rotate, collect, write, prune); rotation and Close run the same
// flusher step inline. Snapshots are written to a temp file and renamed
// into place, so a crash mid-flush leaves the previous snapshot intact.
//
// Recovery tolerates exactly the damage a crash can cause — a torn
// tail (short or CRC-failing final record of a shard's newest segment)
// is skipped and counted — and refuses anything else: a CRC failure in
// a segment's interior, or in any segment that is not the shard's
// newest, is reported as a corrupt-log error with the file and offset,
// never silently truncated.
package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the write surface of one open log or snapshot file.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations the log performs, so tests
// can substitute an in-memory implementation with fault injection
// (package faultfs). The zero configuration uses the real filesystem
// via OS.
type FS interface {
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// ReadDir lists the names (not paths) of the entries in dir.
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// SyncDir flushes the directory entry metadata of dir, making
	// renames and creations under it durable.
	SyncDir(dir string) error
}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Some filesystems reject fsync on directories; the rename itself
	// is still atomic there, so a sync failure is not worth failing
	// the whole flush over.
	_ = d.Sync()
	return d.Close()
}
