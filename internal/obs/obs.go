// Package obs is the observability layer of the monitoring stack: a
// zero-dependency (stdlib log/slog) structured-logging and
// window-lifecycle-tracing package threaded through the whole request
// path. Where /metrics answers "how many", obs answers "which one and
// where did the time go": every window of every session carries a
// lifecycle trace (span timestamps from ingest-enqueue through the
// stationarity gate and the EM fit to the durable append), emitted as one
// structured log line per window, plus discrete events for everything an
// operator needs to reconstruct hours later — DCL transitions, shed
// windows, deadline expiries, circuit-breaker state changes, rate-limit
// rejections, store recoveries, and session lifecycle.
//
// The package has two design rules:
//
//   - Disabled means free. Every Observer method is safe (and a no-op) on
//     a nil receiver, and event arguments are plain scalars the caller
//     already holds, so the logger-off path adds zero allocations to the
//     steady-state window path (asserted by tests and the bench gate).
//   - Deterministic sampling. Routine window_done lines are sampled by a
//     seeded hash of (path, window index) — never a global RNG — so two
//     runs of the same workload log the same windows, and shed, deadline
//     and error windows are ALWAYS emitted regardless of the sample rate.
//
// The event vocabulary (the Event* constants) is the contract the
// operations runbook (docs/OPERATIONS.md) is written against: every
// failure signature there is keyed to these names.
package obs

import (
	"context"
	"log/slog"
	"time"
)

// Event names: the "event" attribute of every structured log line this
// layer emits. docs/OPERATIONS.md is keyed 1:1 to these — rename one and
// the runbook greps go dark, so don't.
const (
	// EventWindowDone is the one-line-per-window lifecycle record: span
	// timestamps, probe count, outcome, EM iterations. Sampled (Options.
	// Sample) for routine windows; always emitted for abnormal outcomes.
	EventWindowDone = "window_done"
	// EventWindowShed marks a window refused by admission control (the
	// circuit breaker or a custom Admit policy). Always emitted.
	EventWindowShed = "window_shed"
	// EventWindowDeadline marks a window whose EM fit was cut short by the
	// per-window deadline. Always emitted.
	EventWindowDeadline = "window_deadline"
	// EventWindowError marks a window that failed identification, or a
	// terminal source failure — always with the path id and the absolute
	// window index, so operators can grep a path's failures directly
	// instead of reading bare strings out of session state.
	EventWindowError = "window_error"
	// EventTransition marks a DCL transition (dcl-onset, dcl-cleared,
	// bound-changed) between consecutive decided windows. Always emitted.
	EventTransition = "transition"

	// EventSessionOpen / Drain / Closed are the session lifecycle.
	EventSessionOpen   = "session_open"
	EventSessionDrain  = "session_drain"
	EventSessionClosed = "session_closed"
	// EventSessionRestart marks the supervisor restarting a session whose
	// pipeline died abnormally (terminal source error or contained
	// panic): attempt number, backoff taken, and the failure that caused
	// it. A restarted session resumes window numbering where it left off.
	EventSessionRestart = "session_restart"
	// EventSessionFailed marks a session parked as failed: the restart
	// budget (N failures within the supervisor window) is exhausted and
	// the supervisor gives up until an operator intervenes.
	EventSessionFailed = "session_failed"
	// EventWatchdogStall marks a session the progress watchdog flagged:
	// its queue is non-empty but no window has been emitted past the
	// configured deadline — a wedged source or a stuck fit.
	EventWatchdogStall = "watchdog_stall"

	// EventIngestReject marks observations refused at the front door: a
	// rate limit (kind=rate_limited) or a full queue (kind=queue_full).
	// Sampled by the window sampler keyed on the path and a per-session
	// rejection counter, so a hot rejection loop cannot flood the log.
	EventIngestReject = "ingest_reject"
	// EventBreakerState marks a circuit-breaker state change
	// (closed/open/half-open), with the transition's cause.
	EventBreakerState = "breaker_state"

	// EventStoreRecovery marks a torn tail found (and truncated) while
	// opening a durable result log after a crash.
	EventStoreRecovery = "store_recovery"
	// EventStoreAppendError marks a window result the durable store
	// refused; the result was still served from memory.
	EventStoreAppendError = "store_append_error"
	// EventStoreFsyncError marks a failed fsync — acknowledged records may
	// not be durable until the next successful flush.
	EventStoreFsyncError = "store_fsync_error"
	// EventStoreDegraded marks a path's log entering degraded mode after
	// a disk fault (failed write, fsync or segment roll): appends buffer
	// in memory, bounded, until recovery drains them back to disk.
	EventStoreDegraded = "store_degraded"
	// EventStoreRecovered marks the degraded→durable transition: the
	// active segment reopened, the pending buffer drained, with the count
	// of records drained and (cumulatively) dropped.
	EventStoreRecovered = "store_recovered"
	// EventStoreSegmentRoll / Retention are the store's segment lifecycle
	// (debug/info level).
	EventStoreSegmentRoll = "store_segment_roll"
	EventStoreRetention   = "store_retention_drop"

	// EventHTTPRequest is the per-request access record (debug level for
	// 2xx, warn for 5xx), stamped with the request id the response echoes
	// in X-Request-Id.
	EventHTTPRequest = "http_request"
)

// Options shapes an Observer.
type Options struct {
	// Logger receives every event; nil disables the observer entirely
	// (New returns nil, and a nil *Observer is a valid no-op).
	Logger *slog.Logger
	// Sample is the fraction of routine window_done events emitted
	// (0 < Sample <= 1; <= 0 or >= 1 means every window). Abnormal
	// windows — shed, deadline-expired, errored — are always emitted.
	Sample float64
	// SampleSeed seeds the deterministic sampler; two observers with the
	// same seed sample the same (path, window) pairs.
	SampleSeed uint64
	// RingSize bounds the in-memory ring of slowest recent window traces
	// served at /debug/traces (default 64, <0 disables the ring).
	RingSize int
}

// Observer is the monitoring stack's event sink: a structured logger, a
// deterministic sampler, and the slowest-trace ring. All methods are safe
// for concurrent use and are no-ops on a nil receiver — callers hold a
// possibly-nil *Observer and never branch.
type Observer struct {
	log     *slog.Logger
	sampler *Sampler
	ring    *Ring
}

// New returns an Observer for opts, or nil (a valid, free no-op observer)
// when opts.Logger is nil.
func New(opts Options) *Observer {
	if opts.Logger == nil {
		return nil
	}
	o := &Observer{
		log:     opts.Logger,
		sampler: NewSampler(opts.Sample, opts.SampleSeed),
	}
	if opts.RingSize >= 0 {
		size := opts.RingSize
		if size == 0 {
			size = DefaultRingSize
		}
		o.ring = NewRing(size)
	}
	return o
}

// Enabled reports whether the observer emits anything at all.
func (o *Observer) Enabled() bool { return o != nil }

// Logger returns the observer's logger, or nil when disabled. Callers
// that need a never-nil logger should fall back to NopLogger.
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.log
}

// Ring returns the slowest-trace ring, or nil when disabled.
func (o *Observer) Ring() *Ring {
	if o == nil {
		return nil
	}
	return o.ring
}

// Window emits one window's lifecycle record: the trace is fed to the
// slowest ring (always, so "slowest" means slowest, not slowest-sampled),
// then logged as one structured line — always for abnormal outcomes,
// sampled for routine ones. Call it exactly once per window result.
func (o *Observer) Window(t *WindowTrace) {
	if o == nil || t == nil {
		return
	}
	if o.ring != nil {
		o.ring.Add(t)
	}
	routine := t.Outcome == OutcomeDone || t.Outcome == OutcomeRejected
	if routine && !o.sampler.Sample(t.Path, uint64(t.Window)) {
		return
	}
	event, level := EventWindowDone, slog.LevelInfo
	switch t.Outcome {
	case OutcomeShed:
		event, level = EventWindowShed, slog.LevelWarn
	case OutcomeDeadline:
		event, level = EventWindowDeadline, slog.LevelWarn
	case OutcomeError:
		event, level = EventWindowError, slog.LevelWarn
	}
	if !o.log.Enabled(context.Background(), level) {
		return
	}
	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs,
		slog.String("event", event),
		slog.String("path", t.Path),
		slog.Int("window", t.Window),
		slog.Int("probes", t.Probes),
		slog.String("outcome", string(t.Outcome)),
	)
	if t.Partial {
		attrs = append(attrs, slog.Bool("partial", true))
	}
	sp := t.SpansMS()
	attrs = append(attrs,
		slog.Float64("enqueue_wait_ms", sp.EnqueueWait),
		slog.Float64("dispatch_ms", sp.Dispatch),
		slog.Float64("gate_ms", sp.Gate),
		slog.Float64("fit_ms", sp.Fit),
	)
	if sp.Append > 0 {
		attrs = append(attrs, slog.Float64("append_ms", sp.Append))
	}
	attrs = append(attrs, slog.Float64("total_ms", sp.Total))
	if t.Outcome == OutcomeDone {
		attrs = append(attrs,
			slog.Int("em_restarts", t.Restarts),
			slog.Int("em_iterations", t.Iterations))
	}
	if t.Transition != "" {
		attrs = append(attrs, slog.String("transition", t.Transition))
	}
	if t.Error != "" {
		attrs = append(attrs, slog.String("error", t.Error))
	}
	o.log.LogAttrs(context.Background(), level, "window", attrs...)
}

// Transition emits a DCL transition event (always; transitions are the
// signal the whole pipeline exists to produce).
func (o *Observer) Transition(path string, window int, transition string, boundSeconds float64) {
	if o == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelInfo, "transition",
		slog.String("event", EventTransition),
		slog.String("path", path),
		slog.Int("window", window),
		slog.String("transition", transition),
		slog.Float64("bound_seconds", boundSeconds),
	)
}

// SessionOpen / SessionDrain / SessionClosed emit the session lifecycle.
func (o *Observer) SessionOpen(path string, resumedFrom int) {
	if o == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelInfo, "session",
		slog.String("event", EventSessionOpen),
		slog.String("path", path),
		slog.Int("resume_window", resumedFrom),
	)
}

func (o *Observer) SessionDrain(path string, queued int) {
	if o == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelInfo, "session",
		slog.String("event", EventSessionDrain),
		slog.String("path", path),
		slog.Int("queued", queued),
	)
}

func (o *Observer) SessionClosed(path string, windows, ingested, dropped uint64, err string) {
	if o == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("event", EventSessionClosed),
		slog.String("path", path),
		slog.Uint64("windows", windows),
		slog.Uint64("ingested", ingested),
		slog.Uint64("dropped", dropped),
	}
	if err != "" {
		attrs = append(attrs, slog.String("error", err))
	}
	o.log.LogAttrs(context.Background(), slog.LevelInfo, "session", attrs...)
}

// SessionError emits a terminal session failure (pipeline setup or a
// source error) with the path id and the window index at which the stream
// died, so the error is greppable instead of a bare string in session
// state.
func (o *Observer) SessionError(path string, window int, err error) {
	if o == nil || err == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelError, "session",
		slog.String("event", EventWindowError),
		slog.String("path", path),
		slog.Int("window", window),
		slog.Bool("terminal", true),
		slog.String("error", err.Error()),
	)
}

// SessionRestart emits one supervisor restart: the attempt number within
// the current budget window, the backoff slept before the restart, the
// window index the session resumes at, and the failure that killed the
// previous incarnation.
func (o *Observer) SessionRestart(path string, attempt int, backoff time.Duration, resumeWindow int, err error) {
	if o == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("event", EventSessionRestart),
		slog.String("path", path),
		slog.Int("attempt", attempt),
		slog.Float64("backoff_ms", float64(backoff)/float64(time.Millisecond)),
		slog.Int("resume_window", resumeWindow),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	o.log.LogAttrs(context.Background(), slog.LevelWarn, "session", attrs...)
}

// SessionFailed emits a session parked as failed: its restart budget is
// exhausted and the supervisor has given up.
func (o *Observer) SessionFailed(path string, restarts int, err error) {
	if o == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("event", EventSessionFailed),
		slog.String("path", path),
		slog.Int("restarts", restarts),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	o.log.LogAttrs(context.Background(), slog.LevelError, "session", attrs...)
}

// WatchdogStall emits a progress-watchdog flag: the session has queued
// observations but emitted no window for longer than the deadline.
func (o *Observer) WatchdogStall(path string, queued int64, since time.Duration) {
	if o == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelWarn, "session",
		slog.String("event", EventWatchdogStall),
		slog.String("path", path),
		slog.Int64("queued", queued),
		slog.Float64("since_ms", float64(since)/float64(time.Millisecond)),
	)
}

// IngestReject emits a front-door rejection (kind "rate_limited" or
// "queue_full"), sampled on (path, rejection counter) so a client
// hammering a limited session cannot flood the log. n is how many
// observations were refused.
func (o *Observer) IngestReject(path, kind string, n int, seq uint64) {
	if o == nil {
		return
	}
	if !o.sampler.Sample(path, seq) {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelWarn, "ingest",
		slog.String("event", EventIngestReject),
		slog.String("path", path),
		slog.String("kind", kind),
		slog.Int("observations", n),
	)
}

// BreakerState emits a circuit-breaker state change with its cause.
func (o *Observer) BreakerState(from, to, cause string) {
	if o == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelWarn, "breaker",
		slog.String("event", EventBreakerState),
		slog.String("from", from),
		slog.String("to", to),
		slog.String("cause", cause),
	)
}

// StoreAppendError emits a durable-append failure for one window.
func (o *Observer) StoreAppendError(path string, window int, err error) {
	if o == nil || err == nil {
		return
	}
	o.log.LogAttrs(context.Background(), slog.LevelError, "store",
		slog.String("event", EventStoreAppendError),
		slog.String("path", path),
		slog.Int("window", window),
		slog.String("error", err.Error()),
	)
}

// HTTPRequest emits one access record. Level: debug for success, warn
// for server errors — access logs are volume, not signal, until they are.
func (o *Observer) HTTPRequest(id uint64, method, path string, status int, bytes int64, elapsed time.Duration) {
	if o == nil {
		return
	}
	level := slog.LevelDebug
	if status >= 500 {
		level = slog.LevelWarn
	}
	if !o.log.Enabled(context.Background(), level) {
		return
	}
	o.log.LogAttrs(context.Background(), level, "http",
		slog.String("event", EventHTTPRequest),
		slog.Uint64("request_id", id),
		slog.String("method", method),
		slog.String("path", path),
		slog.Int("status", status),
		slog.Int64("bytes", bytes),
		slog.Float64("elapsed_ms", float64(elapsed)/float64(time.Millisecond)),
	)
}
