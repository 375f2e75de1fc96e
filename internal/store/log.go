package store

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dominantlink/internal/obs"
)

// Sentinel errors of the log API.
var (
	// ErrReadOnly: the store was opened read-only (offline tooling).
	ErrReadOnly = errors.New("store: read-only")
	// ErrClosed: the log (or its store) has been closed.
	ErrClosed = errors.New("store: closed")
	// ErrStop aborts a Scan early without error — return it from the scan
	// callback once enough records have been seen.
	ErrStop = errors.New("store: stop scan")
)

// segmentInfo is one sealed segment. sum, the summary of its records,
// is known for a segment this process sealed or scanned in full at open;
// summaryLocked fills it on demand for one whose first frame was all open
// read.
type segmentInfo struct {
	File  string
	First int64 // window index of the first record; -1 when it holds none
	Bytes int64 // the whole file including the magic header, so retention sums match du
	sum   *segScan
}

// RecoveryEvent describes one torn tail found (and, in a writable store,
// truncated) while opening or verifying a log.
type RecoveryEvent struct {
	Segment      string // segment file name
	ValidBytes   int64  // intact prefix kept, including the magic header
	DroppedBytes int64  // torn suffix removed
	Reason       string
}

func (e RecoveryEvent) String() string {
	return fmt.Sprintf("%s: kept %d bytes, dropped %d (%s)",
		e.Segment, e.ValidBytes, e.DroppedBytes, e.Reason)
}

// Stats is a point-in-time summary of one log.
type Stats struct {
	Path        string `json:"path"`
	Segments    int    `json:"segments"`
	Records     int    `json:"records"`
	Transitions int    `json:"transitions"`
	Bytes       int64  `json:"bytes"`
	FirstIndex  int64  `json:"first_index"` // oldest retained window index
	NextIndex   int64  `json:"next_index"`  // the resume counter
	OldestNS    int64  `json:"oldest_unix_ns,omitempty"`
	NewestNS    int64  `json:"newest_unix_ns,omitempty"`
}

// Mode is a log's durability mode: durable (appends reach the active
// segment) or degraded (a disk fault is pending recovery and appends
// are buffered in memory).
type Mode int

const (
	// ModeDurable: appends land in the active segment as usual.
	ModeDurable Mode = iota
	// ModeDegraded: a write, sync or roll failure detached the log from
	// its active segment; appends accumulate in a bounded in-memory
	// buffer until a recovery attempt reopens the segment and drains
	// them back to disk.
	ModeDegraded
)

func (m Mode) String() string {
	if m == ModeDegraded {
		return "degraded"
	}
	return "durable"
}

// DegradedStats is one log's degraded-mode accounting snapshot. The
// invariant Produced == Appended + Pending + Dropped holds at every
// instant: a record offered to Append is durably written, buffered
// pending recovery, or explicitly dropped — never silently lost.
type DegradedStats struct {
	Mode     string `json:"mode"`
	Error    string `json:"error,omitempty"` // the fault keeping the log degraded
	Produced int64  `json:"produced"`        // records accepted by Append this process
	Appended int64  `json:"appended"`        // records durably written this process
	Pending  int    `json:"pending"`         // records buffered in memory
	Dropped  int64  `json:"dropped"`         // records evicted from the buffer
}

// Log is one path's segmented result log: a single writer appending
// length-prefixed CRC-checked records to the active segment, rolling to a
// new segment at Options.SegmentBytes, with any number of concurrent
// scanners reading committed bytes through their own file handles. Obtain
// one with Store.Log; all methods are safe for concurrent use.
//
// A disk fault (failed write, fsync or segment roll) does not poison the
// log: it degrades it. Degraded appends still succeed — records go to a
// bounded in-memory buffer (Options.DegradedMaxRecords; overflow drops
// the oldest pending record, counted in Metrics.RecordsDropped) — and
// the store's retry loop periodically reopens the active segment,
// truncates any torn tail back to the last committed frame, drains the
// buffer in order, and re-enters durable mode transparently.
type Log struct {
	store *Store
	id    string
	dir   string

	mu         sync.Mutex // writer state: active segment, sealed set, counter
	closed     bool
	active     File
	activeName string
	activeSize int64
	activeScan segScan // running summary of the active segment's records
	sealed     []segmentInfo
	nextIndex  int64
	nextSeg    int64
	encBuf     []byte
	payloadBuf []byte
	wseq       uint64 // appends issued
	recoveries []RecoveryEvent

	// Degraded mode (all under mu).
	degraded    bool
	degradeErr  error     // the fault that degraded the log (latest)
	pending     []Record  // bounded buffer of records awaiting recovery
	pendingDrop int64     // pending records evicted by the buffer bound
	appended    int64     // records durably written this process
	produced    int64     // records accepted by Append this process
	retryAfter  time.Time // earliest next recovery attempt
	retryWait   time.Duration

	committed atomic.Int64 // committed byte length of the active segment

	syncMu    sync.Mutex
	syncedSeq uint64
	dirty     atomic.Bool // interval policy: an fsync is owed
}

// fs returns the store's filesystem seam.
func (l *Log) fs() FS { return l.store.opts.FS }

// openLog opens (and, unless read-only, recovers) the log directory. The
// segment files are the log's only state: open scans the tail segment in
// full but reads only the magic header and first frame of each sealed
// one, so a restart costs one frame per sealed segment, not a rescan.
func openLog(s *Store, id, dir string) (*Log, error) {
	l := &Log{store: s, id: id, dir: dir, nextSeg: 1}
	ro := s.opts.ReadOnly
	if !ro {
		if err := l.fs().MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	names, err := segmentNames(l.fs(), dir)
	if err != nil {
		return nil, err
	}
	s.metrics.Segments.Add(int64(len(names)))
	if len(names) > 0 {
		// The tail first. When it holds no record (the last write was a
		// roll), the window counter comes from the newest sealed segment,
		// which is then scanned in full rather than by its first frame.
		name := names[len(names)-1]
		names = names[:len(names)-1]
		sc, size, err := l.scanSegment(name)
		if err != nil {
			return nil, err
		}
		l.activeName, l.activeSize, l.activeScan = name, size, sc
		l.committed.Store(size)
		if n, ok := segNumber(name); ok {
			l.nextSeg = n + 1
		}
	}
	for i, name := range names {
		if i < len(names)-1 || l.activeScan.records > 0 {
			if si, ok := l.sealedHead(name); ok {
				l.sealed = append(l.sealed, si)
				continue
			}
		}
		sc, size, err := l.scanSegment(name)
		if err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, sealedInfo(name, size, sc))
	}
	// The window counter is one past the last index of the newest segment
	// that holds a record.
	if l.activeScan.records > 0 {
		l.nextIndex = l.activeScan.last + 1
	} else {
		for i := len(l.sealed) - 1; i >= 0; i-- {
			if l.sealed[i].First < 0 {
				continue
			}
			sum, err := l.summaryLocked(i)
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			l.nextIndex = sum.last + 1
			break
		}
	}
	if ro {
		return l, nil
	}
	// Open (or create) the active segment for appending.
	if l.activeName == "" {
		if err := l.newActiveLocked(); err != nil {
			return nil, err
		}
		s.metrics.Segments.Add(1)
		return l, nil
	}
	f, err := l.fs().OpenFile(filepath.Join(dir, l.activeName), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := f.Truncate(l.activeSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(l.activeSize, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if l.activeSize == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		l.activeSize = int64(len(segMagic))
		l.committed.Store(l.activeSize)
	}
	l.active = f
	return l, nil
}

// scanSegment reads a segment in full and returns the summary and length
// of its intact prefix, noting (and unless read-only truncating) a torn
// tail past it.
func (l *Log) scanSegment(name string) (segScan, int64, error) {
	raw, err := l.fs().ReadFile(filepath.Join(l.dir, name))
	if err != nil {
		return segScan{}, 0, fmt.Errorf("store: %w", err)
	}
	sc, size, torn := checkSegment(name, raw)
	if torn != nil {
		l.recover(*torn)
	}
	return sc, size, nil
}

// sealedInfo is the entry of a sealed segment whose records sc summarizes.
func sealedInfo(name string, size int64, sc segScan) segmentInfo {
	si := segmentInfo{File: name, First: -1, Bytes: size, sum: &sc}
	if sc.records > 0 {
		si.First = sc.first
	}
	return si
}

// sealedHead reads a sealed segment's size and its first frame's window
// index without reading the rest of it. ok is false when the magic header
// or the first frame fails to read or check; the caller then scans the
// segment in full.
func (l *Log) sealedHead(name string) (si segmentInfo, ok bool) {
	path := filepath.Join(l.dir, name)
	fi, err := l.fs().Stat(path)
	if err != nil {
		return si, false
	}
	f, err := l.fs().Open(path)
	if err != nil {
		return si, false
	}
	defer f.Close()
	first, ok := firstIndex(f)
	return segmentInfo{File: name, First: first, Bytes: fi.Size()}, ok
}

// summaryLocked returns the summary of sealed segment i, scanning the file
// once and caching the result when open read only its first frame.
func (l *Log) summaryLocked(i int) (segScan, error) {
	si := &l.sealed[i]
	if si.sum == nil {
		raw, err := l.fs().ReadFile(filepath.Join(l.dir, si.File))
		if err != nil {
			return segScan{}, err
		}
		sc, _ := scanBody(segBody(raw), nil)
		si.sum = &sc
	}
	return *si.sum, nil
}

// recover notes one torn tail and, in a writable store, truncates it away.
func (l *Log) recover(ev RecoveryEvent) {
	ro := l.store.opts.ReadOnly
	l.recoveries = append(l.recoveries, ev)
	l.store.metrics.Recoveries.Add(1)
	l.logw().LogAttrs(context.Background(), slog.LevelWarn, "store",
		slog.String("event", obs.EventStoreRecovery),
		slog.String("path", l.id),
		slog.String("segment", ev.Segment),
		slog.Int64("valid_bytes", ev.ValidBytes),
		slog.Int64("dropped_bytes", ev.DroppedBytes),
		slog.Bool("truncated", !ro),
		slog.String("reason", ev.Reason),
	)
	if !ro {
		l.fs().Truncate(filepath.Join(l.dir, ev.Segment), ev.ValidBytes)
	}
}

// logw returns the store's structured logger (never nil; defaults to a
// discard logger). Every call site is off the append fast path.
func (l *Log) logw() *slog.Logger { return l.store.opts.Logger }

func (l *Log) bumpNext(n int64) {
	if n > l.nextIndex {
		l.nextIndex = n
	}
}

// ID returns the path identifier this log belongs to.
func (l *Log) ID() string { return l.id }

// NextIndex returns the window counter: one past the largest window index
// appended (0 for an empty log). A reopen reads it from the newest segment
// that holds a record, so a window lost with a torn tail is not counted.
// A restarting session resumes numbering here.
func (l *Log) NextIndex() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextIndex
}

// Recoveries returns the torn tails found when the log was opened (already
// truncated unless the store is read-only).
func (l *Log) Recoveries() []RecoveryEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]RecoveryEvent(nil), l.recoveries...)
}

// Append appends one record. A zero AppendedAt is stamped with the store
// clock. In durable mode the write lands in the active segment
// immediately (visible to scanners before Append returns); durability
// follows the store's fsync policy — FsyncAlways group-commits before
// returning, FsyncInterval leaves the fsync to the store's flusher,
// FsyncNone leaves it to the OS.
//
// A disk fault does not fail the append: the log degrades, the record is
// buffered in memory (bounded; see DegradedStats for the accounting),
// and Append returns nil — the record is acknowledged as
// buffered-pending, to be drained to disk when recovery reopens the
// segment. Only ErrReadOnly and ErrClosed are returned.
//
// Window indexes must never decrease in append order: Scan skips a sealed
// segment when the next segment's first index is below its since. A
// transition record carries its window's index and is appended right
// after that window, so the pair may straddle a roll, and a segment may
// start with the index its predecessor ended on.
func (l *Log) Append(rec *Record) error {
	if l.store.opts.ReadOnly {
		return ErrReadOnly
	}
	if rec.AppendedAt == 0 {
		rec.AppendedAt = l.store.now().UnixNano()
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.produced++
	if l.degraded {
		l.bufferLocked(*rec)
		l.mu.Unlock()
		return nil
	}
	if err := l.writeRecordLocked(rec); err != nil {
		l.degradeLocked(err)
		l.bufferLocked(*rec)
		l.mu.Unlock()
		return nil
	}
	l.wseq++
	seq := l.wseq
	roll := l.activeSize >= l.store.opts.SegmentBytes
	l.mu.Unlock()

	if roll {
		if err := l.Roll(); err != nil {
			// The record is durable; the failed seal degrades the log and
			// the roll is retried after recovery.
			l.degrade(err)
			return nil
		}
	}
	switch l.store.opts.Fsync {
	case FsyncAlways:
		if err := l.syncTo(seq); err != nil {
			// Written but not provably durable: degrade so no further
			// appends are acknowledged until the disk answers again.
			l.degrade(err)
		}
	case FsyncInterval:
		l.dirty.Store(true)
	}
	return nil
}

// writeRecordLocked encodes one record and writes its frame to the
// active segment, updating the committed watermark and bookkeeping. On a
// write failure the tail is truncated back to the last committed frame
// (best-effort — recovery re-truncates by byte offset through a fresh
// handle) and the error is returned without bookkeeping changes.
func (l *Log) writeRecordLocked(rec *Record) error {
	if l.active == nil {
		return errors.New("store: no active segment")
	}
	l.payloadBuf = appendRecord(l.payloadBuf[:0], rec)
	l.encBuf = appendFrame(l.encBuf[:0], l.payloadBuf)
	frame := l.encBuf
	prev := l.activeSize
	if _, err := l.active.Write(frame); err != nil {
		l.active.Truncate(prev)
		return fmt.Errorf("store: append: %w", err)
	}
	l.activeSize += int64(len(frame))
	l.committed.Store(l.activeSize)
	l.noteRecordLocked(rec)
	l.store.metrics.BytesWritten.Add(int64(len(frame)))
	l.store.metrics.RecordsAppended.Add(1)
	l.appended++
	return nil
}

// bufferLocked adds one record to the degraded-mode pending buffer,
// evicting (and counting) the oldest when full. The window counter still
// advances: a buffered record is acknowledged, so a restarted session
// must not reuse its index.
func (l *Log) bufferLocked(rec Record) {
	for len(l.pending) >= l.store.opts.DegradedMaxRecords {
		l.pending = l.pending[1:]
		l.pendingDrop++
		l.store.metrics.RecordsDropped.Add(1)
		l.store.metrics.RecordsPending.Add(-1)
	}
	l.pending = append(l.pending, rec)
	l.store.metrics.RecordsPending.Add(1)
	l.bumpNext(int64(rec.Window.Window) + 1)
}

// degrade enters degraded mode from off-lock call sites.
func (l *Log) degrade(err error) {
	l.mu.Lock()
	if !l.closed {
		l.degradeLocked(err)
	}
	l.mu.Unlock()
}

// degradeLocked detaches the log from its active segment after a disk
// fault: the (possibly wedged) handle is closed, subsequent appends
// buffer in memory, and the store's retry loop takes over recovery.
func (l *Log) degradeLocked(err error) {
	l.degradeErr = err
	if l.degraded {
		return
	}
	l.degraded = true
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.retryWait = l.store.opts.RetryEvery
	l.retryAfter = l.store.now().Add(l.retryWait)
	l.store.metrics.Degraded.Add(1)
	l.logw().LogAttrs(context.Background(), slog.LevelError, "store",
		slog.String("event", obs.EventStoreDegraded),
		slog.String("path", l.id),
		slog.String("segment", l.activeName),
		slog.String("error", err.Error()),
	)
}

// Mode reports whether the log is durable or degraded.
func (l *Log) Mode() Mode {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.degraded {
		return ModeDegraded
	}
	return ModeDurable
}

// DegradedStats returns the log's degraded-mode accounting snapshot.
func (l *Log) DegradedStats() DegradedStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := DegradedStats{
		Mode:     ModeDurable.String(),
		Produced: l.produced,
		Appended: l.appended,
		Pending:  len(l.pending),
		Dropped:  l.pendingDrop,
	}
	if l.degraded {
		st.Mode = ModeDegraded.String()
		if l.degradeErr != nil {
			st.Error = l.degradeErr.Error()
		}
	}
	return st
}

// maybeRecover is the store retry loop's per-tick hook: attempt recovery
// when degraded and past the backoff deadline.
func (l *Log) maybeRecover() {
	l.mu.Lock()
	if l.degraded && !l.closed && !l.store.now().Before(l.retryAfter) {
		l.tryRecoverLocked()
	}
	l.mu.Unlock()
}

// TryRecover forces one immediate recovery attempt (ignoring the backoff
// schedule), returning nil when the log is durable again. Exposed for
// drain paths and deterministic tests; the store's retry loop calls the
// same machinery on its own clock.
func (l *Log) TryRecover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.degraded {
		return nil
	}
	return l.tryRecoverLocked()
}

// tryRecoverLocked attempts the degraded→durable transition: reopen the
// active segment, truncate whatever a failed append left past the last
// committed frame, prove the handle reaches stable storage with an
// fsync, then drain the pending buffer to disk in order. Any failure
// leaves the log degraded with doubled backoff; success re-enters
// durable mode transparently.
func (l *Log) tryRecoverLocked() error {
	fail := func(err error) error {
		l.degradeErr = err
		l.retryWait *= 2
		if max := 32 * l.store.opts.RetryEvery; l.retryWait > max {
			l.retryWait = max
		}
		l.retryAfter = l.store.now().Add(l.retryWait)
		return err
	}
	f, err := l.fs().OpenFile(filepath.Join(l.dir, l.activeName), os.O_RDWR, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: recovery reopen: %w", err))
	}
	if err := f.Truncate(l.activeSize); err != nil {
		f.Close()
		return fail(fmt.Errorf("store: recovery truncate: %w", err))
	}
	if _, err := f.Seek(l.activeSize, 0); err != nil {
		f.Close()
		return fail(fmt.Errorf("store: recovery seek: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(fmt.Errorf("store: recovery fsync: %w", err))
	}
	if l.active != nil {
		l.active.Close()
	}
	l.active = f
	drained := 0
	for len(l.pending) > 0 {
		rec := l.pending[0]
		if err := l.writeRecordLocked(&rec); err != nil {
			// Keep the remainder pending; the handle just proved flaky
			// again, so stay degraded and back off.
			return fail(err)
		}
		l.pending = l.pending[1:]
		l.store.metrics.RecordsPending.Add(-1)
		l.wseq++
		drained++
		if l.activeSize >= l.store.opts.SegmentBytes {
			if err := l.rollLocked(); err != nil {
				return fail(err)
			}
			l.applyRetentionLocked()
		}
	}
	l.pending = nil
	// One final fsync covers the drained records whatever the policy: the
	// transition back to durable must not leave just-recovered data
	// sitting only in the page cache.
	if drained > 0 {
		if err := l.active.Sync(); err != nil {
			return fail(fmt.Errorf("store: recovery fsync: %w", err))
		}
		l.store.metrics.Fsyncs.Add(1)
	}
	l.degraded = false
	l.degradeErr = nil
	l.retryWait = 0
	l.store.metrics.Recovered.Add(1)
	l.logw().LogAttrs(context.Background(), slog.LevelInfo, "store",
		slog.String("event", obs.EventStoreRecovered),
		slog.String("path", l.id),
		slog.String("segment", l.activeName),
		slog.Int("drained", drained),
		slog.Int64("dropped", l.pendingDrop),
	)
	return nil
}

// noteRecordLocked folds one appended record into the active segment's
// running summary and the window counter.
func (l *Log) noteRecordLocked(rec *Record) {
	sc := &l.activeScan
	idx := int64(rec.Window.Window)
	if sc.records == 0 {
		sc.first, sc.last = idx, idx
		sc.oldest, sc.newest = rec.AppendedAt, rec.AppendedAt
	} else {
		if idx < sc.first {
			sc.first = idx
		}
		if idx > sc.last {
			sc.last = idx
		}
		if rec.AppendedAt < sc.oldest {
			sc.oldest = rec.AppendedAt
		}
		if rec.AppendedAt > sc.newest {
			sc.newest = rec.AppendedAt
		}
	}
	if rec.Kind == KindTransition {
		sc.transitioned++
	}
	sc.records++
	l.bumpNext(idx + 1)
}

// syncTo fsyncs the active segment if appends up to seq are not yet known
// durable. Concurrent appenders pile up on syncMu and the first fsync
// covers all of them — the group commit.
func (l *Log) syncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq >= seq {
		return nil
	}
	l.mu.Lock()
	f := l.active
	cur := l.wseq
	closed := l.closed
	l.mu.Unlock()
	if closed || f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		l.logw().LogAttrs(context.Background(), slog.LevelError, "store",
			slog.String("event", obs.EventStoreFsyncError),
			slog.String("path", l.id),
			slog.String("error", err.Error()),
		)
		return fmt.Errorf("store: fsync: %w", err)
	}
	l.store.metrics.Fsyncs.Add(1)
	l.syncedSeq = cur
	return nil
}

// Sync flushes the active segment to stable storage regardless of policy.
// A degraded log first attempts recovery (reopen + drain), so a
// drain-time SyncAll either lands every pending record or surfaces the
// disk fault as its error.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.degraded {
		if err := l.tryRecoverLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	seq := l.wseq
	l.mu.Unlock()
	l.dirty.Store(false)
	return l.syncTo(seq)
}

// flushIfDirty is the interval policy's periodic hook.
func (l *Log) flushIfDirty() {
	if l.dirty.Swap(false) {
		l.mu.Lock()
		seq := l.wseq
		l.mu.Unlock()
		l.syncTo(seq)
	}
}

// Roll seals the active segment (fsync, close) and starts a new one, then
// applies retention. A roll of an empty active segment is a no-op.
// Exposed for tests; Append rolls automatically at Options.SegmentBytes.
func (l *Log) Roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.store.opts.ReadOnly || l.degraded {
		return nil
	}
	if err := l.rollLocked(); err != nil {
		return err
	}
	l.applyRetentionLocked()
	return nil
}

func (l *Log) rollLocked() error {
	if l.activeScan.records == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.logw().LogAttrs(context.Background(), slog.LevelError, "store",
			slog.String("event", obs.EventStoreFsyncError),
			slog.String("path", l.id),
			slog.String("segment", l.activeName),
			slog.String("error", err.Error()),
		)
		return fmt.Errorf("store: sealing segment: %w", err)
	}
	l.store.metrics.Fsyncs.Add(1)
	l.active.Close()
	sc := l.activeScan
	l.sealed = append(l.sealed, sealedInfo(l.activeName, l.activeSize, sc))
	l.logw().LogAttrs(context.Background(), slog.LevelDebug, "store",
		slog.String("event", obs.EventStoreSegmentRoll),
		slog.String("path", l.id),
		slog.String("segment", l.activeName),
		slog.Int("records", sc.records),
		slog.Int64("bytes", l.activeSize),
	)
	if err := l.newActiveLocked(); err != nil {
		// Un-seal: keep the old segment active (its handle is closed; a
		// degraded-mode recovery reopens it by name) so the sealed set and
		// the active bookkeeping never overlap.
		l.sealed = l.sealed[:len(l.sealed)-1]
		l.active = nil
		return err
	}
	l.store.metrics.Segments.Add(1)
	return nil
}

// newActiveLocked creates the next segment file and writes its header.
func (l *Log) newActiveLocked() error {
	name := segName(l.nextSeg)
	l.nextSeg++
	f, err := l.fs().OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	l.active = f
	l.activeName = name
	l.activeSize = int64(len(segMagic))
	l.activeScan = segScan{}
	l.committed.Store(l.activeSize)
	// The previous fsync covered the sealed file, not this one; the next
	// append re-arms the policy.
	return nil
}

// applyRetentionLocked deletes sealed segments, oldest first, while the
// log exceeds Options.RetainBytes or the oldest sealed segment's newest
// record is older than Options.RetainAge. The active segment and the
// newest sealed segment are never deleted: retention bounds history, not
// the live tail, and a reopen that finds the tail empty takes the window
// counter from the newest sealed segment's last record.
func (l *Log) applyRetentionLocked() {
	opts := l.store.opts
	if opts.RetainBytes <= 0 && opts.RetainAge <= 0 {
		return
	}
	total := l.activeSize
	for _, si := range l.sealed {
		total += si.Bytes
	}
	cutoff := int64(0)
	if opts.RetainAge > 0 {
		cutoff = l.store.now().Add(-opts.RetainAge).UnixNano()
	}
	for len(l.sealed) > 1 {
		oldest := l.sealed[0]
		overBytes := opts.RetainBytes > 0 && total > opts.RetainBytes
		if !overBytes && cutoff == 0 {
			break
		}
		sum, err := l.summaryLocked(0)
		overAge := cutoff > 0 && err == nil && sum.newest < cutoff
		if !overBytes && !overAge {
			break
		}
		reason := "age"
		if overBytes {
			reason = "bytes"
		}
		l.fs().Remove(filepath.Join(l.dir, oldest.File))
		total -= oldest.Bytes
		l.sealed = l.sealed[1:]
		l.store.metrics.Segments.Add(-1)
		l.logw().LogAttrs(context.Background(), slog.LevelInfo, "store",
			slog.String("event", obs.EventStoreRetention),
			slog.String("path", l.id),
			slog.String("segment", oldest.File),
			slog.Int64("bytes", oldest.Bytes),
			slog.Int64("last_index", sum.last),
			slog.String("reason", reason),
		)
	}
}

// Scan replays intact records with window index >= since, in append order,
// until fn returns an error (ErrStop aborts cleanly). It reads sealed
// segments through their own file handles and the active segment up to its
// committed length, so any number of scans run concurrently with the
// writer; frames pass through one small buffered reader, so a scan holds
// one frame in memory whatever the segment size. Sealed segments whose every index is below since are skipped
// without being read — the offset-addressed part of the contract. As
// indexes never decrease, a segment's indexes are bounded by the next
// non-empty segment's first index, or by NextIndex−1 for the newest.
func (l *Log) Scan(since int64, fn func(Record) error) error {
	l.mu.Lock()
	upper := l.nextIndex - 1
	if l.activeScan.records > 0 {
		upper = l.activeScan.first
	}
	from := len(l.sealed)
	for from > 0 && upper >= since {
		from--
		if first := l.sealed[from].First; first >= 0 {
			upper = first
		}
	}
	segs := append([]segmentInfo(nil), l.sealed[from:]...)
	activeName := l.activeName
	committed := l.committed.Load()
	l.mu.Unlock()

	filtered := func(rec Record) error {
		if int64(rec.Window.Window) < since {
			return nil
		}
		return fn(rec)
	}
	br := scanReaders.Get().(*bufio.Reader)
	defer func() {
		br.Reset(nil)
		scanReaders.Put(br)
	}()
	for _, si := range segs {
		if err := l.scanFile(br, si.File, math.MaxInt64, filtered); err != nil {
			return scanErr(err)
		}
	}
	if activeName == "" || committed <= int64(len(segMagic)) {
		return nil
	}
	return scanErr(l.scanFile(br, activeName, committed, filtered))
}

// scanReaders buffer the segment reads of Scan, one per running scan.
var scanReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}

// scanFile passes fn the intact records among the first size bytes of
// segment file name, read through br. A file that is gone (retention
// raced the scan) or has no segment magic holds no records.
func (l *Log) scanFile(br *bufio.Reader, name string, size int64, fn func(Record) error) error {
	f, err := l.fs().Open(filepath.Join(l.dir, name))
	if err != nil {
		return nil
	}
	defer f.Close()
	br.Reset(io.NewSectionReader(f, 0, size))
	head, _ := br.Peek(len(segMagic))
	if checkMagic(head) != nil {
		return nil
	}
	br.Discard(len(head))
	_, err = scanFrames(br, fn)
	return err
}

func scanErr(err error) error {
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// readPrefix reads the first n bytes of a file — the committed prefix of
// the active segment, which the writer may be extending concurrently.
func (l *Log) readPrefix(path string, n int64) ([]byte, error) {
	f, err := l.fs().Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, 0)
	if int64(got) < n && err != nil {
		return nil, err
	}
	return buf[:got], nil
}

// Verify re-reads every segment, sealed and active, checking frames and
// CRCs, and reports any torn or corrupt regions without modifying the log.
func (l *Log) Verify() ([]RecoveryEvent, error) {
	l.mu.Lock()
	segs := append([]segmentInfo(nil), l.sealed...)
	activeName := l.activeName
	committed := l.committed.Load()
	l.mu.Unlock()

	var events []RecoveryEvent
	check := func(name string, raw []byte) {
		if _, _, torn := checkSegment(name, raw); torn != nil {
			events = append(events, *torn)
		}
	}
	for _, si := range segs {
		raw, err := l.fs().ReadFile(filepath.Join(l.dir, si.File))
		if err != nil {
			continue
		}
		check(si.File, raw)
	}
	if activeName != "" {
		raw, err := l.readPrefix(filepath.Join(l.dir, activeName), committed)
		if err == nil {
			check(activeName, raw)
		}
	}
	return events, nil
}

// Stats summarizes the log: segment and record counts, byte size, index
// range, and append-time range. It is exact after a reopen too: the first
// call reads each sealed segment open did not scan, and caches the result.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Path: l.id, FirstIndex: l.nextIndex, NextIndex: l.nextIndex}
	add := func(sc segScan, bytes int64) {
		st.Segments++
		st.Bytes += bytes
		if sc.records == 0 {
			return
		}
		if st.Records == 0 {
			st.FirstIndex, st.OldestNS = sc.first, sc.oldest
		}
		st.Records += sc.records
		st.Transitions += sc.transitioned
		st.OldestNS = min(st.OldestNS, sc.oldest)
		st.NewestNS = max(st.NewestNS, sc.newest)
	}
	for i, si := range l.sealed {
		sc, _ := l.summaryLocked(i) // an unreadable segment counts its bytes only
		add(sc, si.Bytes)
	}
	if l.activeName != "" {
		add(l.activeScan, l.activeSize)
	}
	return st
}

// Close seals the log handle: syncs the active segment (unless read-only)
// and releases the file. A degraded log gets one last recovery attempt
// first; pending records that still cannot reach disk are dropped —
// counted, never silent — and the recovery error is returned so the
// caller (Store.Close, the daemon's drain) can report a lossy shutdown.
// Further Appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if !l.store.opts.ReadOnly {
		if l.degraded {
			err = l.tryRecoverLocked()
		}
		if l.active != nil {
			if serr := l.active.Sync(); serr != nil {
				if err == nil {
					err = serr
				}
			} else {
				l.store.metrics.Fsyncs.Add(1)
			}
			l.active.Close()
		}
	}
	if n := int64(len(l.pending)); n > 0 {
		l.pendingDrop += n
		l.store.metrics.RecordsDropped.Add(n)
		l.store.metrics.RecordsPending.Add(-n)
		l.pending = nil
	}
	l.closed = true
	l.active = nil
	l.mu.Unlock()
	return err
}

// segName formats segment file n; zero-padded so lexical order is creation
// order.
func segName(n int64) string { return fmt.Sprintf("%016d.wal", n) }

// segNumber parses a segment file name back to its sequence number.
func segNumber(name string) (int64, bool) {
	var n int64
	if _, err := fmt.Sscanf(name, "%d.wal", &n); err != nil {
		return 0, false
	}
	return n, true
}

// segmentNames lists the segment files of a log directory in order.
func segmentNames(fsys FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
