// Package store is the monitor's durable result archive: one segmented
// write-ahead log per monitored path, holding every window verdict and
// DCL transition the identification pipeline produced. Records are
// length-prefixed, CRC32C-checked, and versioned, so a crash mid-append
// costs at most the torn tail of the active segment — recovery truncates
// it and every earlier record survives bit-for-bit. The store is the
// source of truth the HTTP layer falls back to when a `?since=` offset or
// an SSE Last-Event-ID has aged out of the in-memory ring, and the
// persisted window counter is what lets a restarted session resume
// numbering instead of restarting at zero.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dominantlink/internal/obs"
)

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) marks appended logs dirty and lets the
	// store's flusher fsync them every Options.FsyncEvery: bounded data
	// loss (one interval) at near-zero per-append cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways group-commits every append before it returns: no
	// acknowledged record is ever lost, at the price of an fsync on the
	// append path (amortized across concurrent appenders).
	FsyncAlways
	// FsyncNone never fsyncs explicitly; durability is whatever the OS
	// page cache provides. Fastest, loses up to the whole cache on power
	// failure, loses nothing on a mere process crash.
	FsyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag/config spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Options configures a Store. The zero value plus a Dir is usable:
// interval fsync every 100ms, 1 MiB segments, unbounded retention.
type Options struct {
	// Dir is the store's root directory; one subdirectory per path.
	Dir string
	// Fsync is the append durability policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval flush period; default 100ms.
	FsyncEvery time.Duration
	// SegmentBytes is the roll threshold of the active segment; default
	// 1 MiB.
	SegmentBytes int64
	// RetainBytes bounds one path's log size; when exceeded at a segment
	// roll, sealed segments are deleted oldest-first. The newest sealed
	// segment is always kept (it holds the window counter a reopen
	// resumes from), so a bound below one segment still keeps it and
	// the active segment. 0 = unbounded.
	RetainBytes int64
	// RetainAge drops sealed segments whose newest record is older than
	// this at a segment roll, except the newest sealed segment. 0 =
	// unbounded.
	RetainAge time.Duration
	// ReadOnly opens the store for inspection only: no recovery
	// truncation, no appends — what cmd/dclstore uses on a live store.
	ReadOnly bool
	// FS is the filesystem seam; nil means the real filesystem. Tests
	// inject fault schedules (ENOSPC, EIO, short writes, failing fsyncs)
	// through it via internal/faultinject.
	FS FS
	// DegradedMaxRecords bounds the in-memory pending buffer one log
	// accumulates while degraded by a disk fault; default 4096. When the
	// buffer is full the oldest pending record is dropped and counted
	// (Metrics.RecordsDropped) — never silently.
	DegradedMaxRecords int
	// RetryEvery is the base period of the degraded-mode recovery loop:
	// how often a degraded log attempts to reopen its active segment and
	// drain the pending buffer back to disk. Per-log exponential backoff
	// (doubling to 32x) rides on top. Default 1s.
	RetryEvery time.Duration
	// Now overrides the wall clock (tests); defaults to time.Now.
	Now func() time.Time
	// Logger receives the store's structured events — crash recoveries,
	// fsync failures, degraded-mode transitions, segment rolls, retention
	// drops (see the obs.EventStore* names). Nil discards them. Every
	// emission site is a cold path; the append fast path never logs.
	Logger *slog.Logger
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 100 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if opts.DegradedMaxRecords <= 0 {
		opts.DegradedMaxRecords = 4096
	}
	if opts.RetryEvery <= 0 {
		opts.RetryEvery = time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	return opts
}

// Metrics are the store's monotonic counters, published by the monitor's
// /metrics endpoint. Segments tracks the current segment-file count
// across open logs (up on create, down on retention);
// RecordsPending is the live gauge of records buffered in memory by
// degraded logs; everything else only goes up. The degraded-mode
// accounting invariant — every produced record is durably appended,
// buffered-pending, or explicitly dropped — reads as
// RecordsAppended + RecordsPending + RecordsDropped == records offered.
type Metrics struct {
	BytesWritten atomic.Int64
	Segments     atomic.Int64
	Recoveries   atomic.Int64
	Fsyncs       atomic.Int64

	// Degraded-mode transitions and accounting.
	Degraded        atomic.Int64 // durable→degraded transitions
	Recovered       atomic.Int64 // degraded→durable transitions
	RecordsAppended atomic.Int64 // records durably written this process
	RecordsPending  atomic.Int64 // gauge: records buffered while degraded
	RecordsDropped  atomic.Int64 // pending records evicted by the buffer bound
}

// Store is a directory of per-path result logs sharing one configuration,
// one metrics block, and (under FsyncInterval) one background flusher.
// Logs open lazily on first use and stay open until Close. All methods
// are safe for concurrent use.
type Store struct {
	opts    Options
	metrics Metrics

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	flushStop chan struct{}
	flushDone chan struct{}

	retryStop chan struct{}
	retryDone chan struct{}
}

// Open opens (creating if needed, unless read-only) a store rooted at
// opts.Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	o := opts.withDefaults()
	if o.ReadOnly {
		if _, err := o.FS.Stat(o.Dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else if err := o.FS.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{opts: o, logs: make(map[string]*Log)}
	if !o.ReadOnly && o.Fsync == FsyncInterval {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	if !o.ReadOnly {
		s.retryStop = make(chan struct{})
		s.retryDone = make(chan struct{})
		go s.retryLoop()
	}
	return s, nil
}

func (s *Store) now() time.Time { return s.opts.Now() }

// Metrics returns the store's counter block (live; fields are atomics).
func (s *Store) Metrics() *Metrics { return &s.metrics }

// Options returns the store's effective (defaulted) options.
func (s *Store) Options() Options { return s.opts }

// Log returns the result log of one path, opening (and recovering) it on
// first use. The same *Log is returned for the same id until Close. A
// writable store creates the path's directory; a read-only one returns
// an error wrapping os.ErrNotExist when the path has none.
func (s *Store) Log(id string) (*Log, error) {
	if id == "" {
		return nil, errors.New("store: empty path id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if l, ok := s.logs[id]; ok {
		return l, nil
	}
	l, err := openLog(s, id, filepath.Join(s.opts.Dir, escapePath(id)))
	if err != nil {
		return nil, err
	}
	s.logs[id] = l
	return l, nil
}

// Paths lists every path with a log directory under the store root —
// both logs opened this process and logs left by earlier ones.
func (s *Store) Paths() ([]string, error) {
	ents, err := s.opts.FS.ReadDir(s.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, unescapePath(e.Name()))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// SyncAll fsyncs every open log regardless of policy — the drain-time
// flush dclserved runs before exiting.
func (s *Store) SyncAll() error {
	var firstErr error
	for _, l := range s.snapshotLogs() {
		if err := l.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close stops the flusher and closes every open log (final fsync). The
// store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	if s.retryStop != nil {
		close(s.retryStop)
		<-s.retryDone
	}
	var firstErr error
	for _, l := range logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DegradedPaths lists the open logs currently in degraded mode (disk
// fault pending recovery), for health reporting. Empty means every log
// is durable.
func (s *Store) DegradedPaths() []string {
	var ids []string
	for _, l := range s.snapshotLogs() {
		if l.Mode() == ModeDegraded {
			ids = append(ids, l.ID())
		}
	}
	sort.Strings(ids)
	return ids
}

func (s *Store) snapshotLogs() []*Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	return logs
}

// flushLoop is the FsyncInterval policy's single background goroutine:
// every FsyncEvery it fsyncs the logs that appended since the last tick.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			for _, l := range s.snapshotLogs() {
				l.flushIfDirty()
			}
		}
	}
}

// retryLoop is the degraded-mode recovery goroutine: every RetryEvery it
// offers each degraded log a recovery attempt (the log applies its own
// exponential backoff on repeated failures). One goroutine per store —
// degraded logs are the exception, so the loop is almost always a cheap
// scan of zero degraded entries.
func (s *Store) retryLoop() {
	defer close(s.retryDone)
	t := time.NewTicker(s.opts.RetryEvery)
	defer t.Stop()
	for {
		select {
		case <-s.retryStop:
			return
		case <-t.C:
			for _, l := range s.snapshotLogs() {
				l.maybeRecover()
			}
		}
	}
}

// escapePath maps a path id (validated upstream as slash- and
// whitespace-free, ≤128 bytes) to a safe directory name: bytes outside
// [A-Za-z0-9._-] are %XX-escaped, as are '%' itself and a leading '.' —
// so no id can produce "..", a hidden file, or an escape from the store
// root, and distinct ids never collide.
func escapePath(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-':
			b.WriteByte(c)
		case c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// unescapePath inverts escapePath (best-effort: malformed escapes pass
// through verbatim, which can only happen for directories the store did
// not create).
func unescapePath(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '%' && i+2 < len(name) {
			var v int
			if _, err := fmt.Sscanf(name[i+1:i+3], "%02X", &v); err == nil {
				b.WriteByte(byte(v))
				i += 2
				continue
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}
