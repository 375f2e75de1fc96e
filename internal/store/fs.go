package store

import (
	"io"
	"os"
)

// FS is the store's filesystem seam: every byte the store reads or
// writes goes through exactly one FS, so disk faults — ENOSPC, EIO,
// short writes, failing fsyncs — can be injected deterministically in
// tests (internal/faultinject wraps an FS with fault schedules) and the
// degraded-mode machinery has one choke point to heal through. The
// default is the real filesystem (osFS); production never pays an
// indirection beyond one interface call per operation, all on cold or
// already-syscall-bound paths.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Remove(name string) error
	Truncate(name string, size int64) error
}

// File is the open-file surface the store uses: append writes, random
// reads (scanners), truncation (torn-tail and failed-append repair),
// seeking (reopen-and-resume in degraded recovery), and fsync.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// osFS is the real filesystem; *os.File satisfies File as-is.
type osFS struct{}

// OSFS returns the real-filesystem FS, the default for Options.FS.
func OSFS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
