package faultinject

import (
	"os"
	"sync"

	"gridsched/internal/journal"
)

// File wraps a journal.File and fails operations on cue. Zero value of
// the fault schedule means "pass everything through".
type File struct {
	inner journal.File

	mu          sync.Mutex
	writesLeft  int  // writes remaining before injection; -1 = unlimited
	failWrites  bool // when armed and writesLeft hits 0, writes fail
	failSyncs   bool
	writeCalls  int
	syncCalls   int
	failedCalls int
}

// WrapFile wraps f; the result satisfies journal.File and can be handed
// to journal.OpenWriterFile.
func WrapFile(f journal.File) *File {
	return &File{inner: f, writesLeft: -1}
}

// OpenFile opens path the way journal.OpenWriter would and wraps it.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return WrapFile(f), nil
}

// FailWritesAfter lets the next n writes succeed and fails every write
// after them with ErrInjected.
func (f *File) FailWritesAfter(n int) {
	f.mu.Lock()
	f.failWrites = true
	f.writesLeft = n
	f.mu.Unlock()
}

// FailSyncs arms (or disarms) fsync failure: while armed every Sync
// returns ErrInjected.
func (f *File) FailSyncs(on bool) {
	f.mu.Lock()
	f.failSyncs = on
	f.mu.Unlock()
}

// Restore clears the entire fault schedule.
func (f *File) Restore() {
	f.mu.Lock()
	f.failWrites = false
	f.failSyncs = false
	f.writesLeft = -1
	f.mu.Unlock()
}

// Injected reports how many operations failed by injection.
func (f *File) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failedCalls
}

func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.writeCalls++
	inject := f.failWrites && f.writesLeft == 0
	if f.failWrites && f.writesLeft > 0 {
		f.writesLeft--
	}
	if inject {
		f.failedCalls++
	}
	f.mu.Unlock()
	if inject {
		return 0, ErrInjected
	}
	return f.inner.Write(p)
}

func (f *File) Sync() error {
	f.mu.Lock()
	f.syncCalls++
	inject := f.failSyncs
	if inject {
		f.failedCalls++
	}
	f.mu.Unlock()
	if inject {
		return ErrInjected
	}
	return f.inner.Sync()
}

func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *File) Truncate(size int64) error { return f.inner.Truncate(size) }

func (f *File) Stat() (os.FileInfo, error) { return f.inner.Stat() }

func (f *File) Close() error { return f.inner.Close() }
