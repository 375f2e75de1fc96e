package faultinject

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"dominantlink/internal/store"
)

// FSConfig shapes a faulty filesystem wrapped around a store.FS. Counters
// are global across all files of the wrapped FS (a disk fault hits the
// device, not one file), 1-indexed, and deterministic; zero values
// disable that schedule. The scheduled faults compose with the runtime
// toggles (BreakWrites / BreakSyncs), which chaos harnesses flip mid-run
// to model a disk filling up and later clearing.
type FSConfig struct {
	// Err is the injected errno for write and open faults; default
	// syscall.ENOSPC (disk full). Sync faults use SyncErr, default
	// syscall.EIO.
	Err     error
	SyncErr error

	// WriteErrAfter, when > 0, fails every data write past that many
	// successful ones — the disk filling up and staying full.
	WriteErrAfter int64
	// WriteErrEvery, when > 0, fails every Nth data write — intermittent
	// I/O errors.
	WriteErrEvery int64
	// ShortWriteEvery, when > 0, makes every Nth data write a short
	// write: half the buffer lands, then the error — a torn frame in the
	// middle of a live segment.
	ShortWriteEvery int64
	// SyncErrEvery, when > 0, fails every Nth fsync — acknowledged
	// durability silently broken unless the caller checks.
	SyncErrEvery int64
}

// FS wraps a store.FS with deterministic disk-fault schedules and
// runtime fault toggles. It satisfies store.FS; hand it to
// store.Options.FS. Only writes through open files (the WAL append
// path) consult the write schedule and the runtime toggles; metadata
// operations — MkdirAll, ReadDir, Stat, Remove, Truncate — pass through
// unfaulted, so schedules count exactly the segment writes a test
// reasons about.
type FS struct {
	cfg   FSConfig
	inner store.FS

	writes atomic.Int64
	syncs  atomic.Int64

	mu         sync.Mutex
	writesDown bool  // BreakWrites: every data write fails
	syncsDown  bool  // BreakSyncs: every fsync fails
	writeErr   error // override for BreakWrites
	syncErr    error // override for BreakSyncs
}

// NewFS wraps inner (nil means the real filesystem) with cfg's faults.
func NewFS(inner store.FS, cfg FSConfig) *FS {
	if inner == nil {
		inner = store.OSFS()
	}
	if cfg.Err == nil {
		cfg.Err = syscall.ENOSPC
	}
	if cfg.SyncErr == nil {
		cfg.SyncErr = syscall.EIO
	}
	return &FS{cfg: cfg, inner: inner}
}

// Writes reports how many data writes the fault layer has seen.
func (f *FS) Writes() int64 { return f.writes.Load() }

// BreakWrites makes every subsequent data write fail with err (nil means
// the configured Err) until HealWrites — the "disk just filled up" lever
// of a chaos run.
func (f *FS) BreakWrites(err error) {
	f.mu.Lock()
	f.writesDown, f.writeErr = true, err
	f.mu.Unlock()
}

// HealWrites clears BreakWrites.
func (f *FS) HealWrites() {
	f.mu.Lock()
	f.writesDown = false
	f.mu.Unlock()
}

// BreakSyncs makes every subsequent fsync fail with err (nil means the
// configured SyncErr) until HealSyncs.
func (f *FS) BreakSyncs(err error) {
	f.mu.Lock()
	f.syncsDown, f.syncErr = true, err
	f.mu.Unlock()
}

// HealSyncs clears BreakSyncs.
func (f *FS) HealSyncs() {
	f.mu.Lock()
	f.syncsDown = false
	f.mu.Unlock()
}

// writeFault consults the toggles and schedules for one data write of n
// bytes, returning how many bytes to let through and the injected error
// (short == n, err == nil means the write passes).
func (f *FS) writeFault(n int) (short int, err error) {
	f.mu.Lock()
	down, derr := f.writesDown, f.writeErr
	f.mu.Unlock()
	if down {
		if derr == nil {
			derr = f.cfg.Err
		}
		return 0, derr
	}
	c := f.writes.Add(1)
	if f.cfg.ShortWriteEvery > 0 && c%f.cfg.ShortWriteEvery == 0 {
		return n / 2, f.cfg.Err
	}
	if f.cfg.WriteErrEvery > 0 && c%f.cfg.WriteErrEvery == 0 {
		return 0, f.cfg.Err
	}
	if f.cfg.WriteErrAfter > 0 && c > f.cfg.WriteErrAfter {
		return 0, f.cfg.Err
	}
	return n, nil
}

// syncFault consults the toggles and schedules for one fsync.
func (f *FS) syncFault() error {
	f.mu.Lock()
	down, serr := f.syncsDown, f.syncErr
	f.mu.Unlock()
	if down {
		if serr == nil {
			serr = f.cfg.SyncErr
		}
		return serr
	}
	c := f.syncs.Add(1)
	if f.cfg.SyncErrEvery > 0 && c%f.cfg.SyncErrEvery == 0 {
		return f.cfg.SyncErr
	}
	return nil
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FS) Open(name string) (store.File, error) {
	// Read-side opens (scanners) pass through: the machinery under test
	// is the write path.
	return f.inner.Open(name)
}

func (f *FS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *FS) ReadDir(name string) ([]os.DirEntry, error)   { return f.inner.ReadDir(name) }
func (f *FS) Stat(name string) (os.FileInfo, error)        { return f.inner.Stat(name) }
func (f *FS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *FS) Truncate(name string, size int64) error       { return f.inner.Truncate(name, size) }

// faultFile intercepts the data-path operations of one open file.
type faultFile struct {
	store.File
	fs *FS
}

func (f *faultFile) Write(p []byte) (int, error) {
	short, err := f.fs.writeFault(len(p))
	if err != nil {
		n := 0
		if short > 0 {
			// A short write lands a prefix for real — the torn-tail case
			// the store's truncate-back repair exists for.
			n, _ = f.File.Write(p[:short])
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.syncFault(); err != nil {
		return err
	}
	return f.File.Sync()
}
