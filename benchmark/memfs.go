package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"tscds/internal/wal"
)

// memFS is the benchmark's in-memory wal.FS for the full-stack workload. A
// CPU sandbox can measure the WAL's code but not a shared disk, so files are
// byte slices and Sync does nothing.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile

	bytes atomic.Uint64 // bytes written to any file
}

type memFile struct {
	fs   *memFS
	data []byte
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memFile)} }

func (f *memFS) MkdirAll(string) error { return nil }

func (f *memFS) Create(path string) (wal.File, error) {
	mf := &memFile{fs: f}
	f.mu.Lock()
	f.files[path] = mf
	f.mu.Unlock()
	return mf, nil
}

func (f *memFS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[oldPath]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldPath)
	}
	delete(f.files, oldPath)
	f.files[newPath] = mf
	return nil
}

func (f *memFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; !ok {
		return fmt.Errorf("memfs: remove %s: no such file", path)
	}
	delete(f.files, path)
	return nil
}

func (f *memFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var names []string
	for p := range f.files {
		if filepath.Dir(p) == filepath.Clean(dir) {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *memFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("memfs: read %s: no such file", path)
	}
	return append([]byte(nil), mf.data...), nil
}

func (f *memFS) SyncDir(string) error { return nil }

func (mf *memFile) Write(p []byte) (int, error) {
	mf.fs.mu.Lock()
	mf.data = append(mf.data, p...)
	mf.fs.mu.Unlock()
	mf.fs.bytes.Add(uint64(len(p)))
	return len(p), nil
}

func (mf *memFile) Sync() error { return nil }

func (mf *memFile) Close() error { return nil }
