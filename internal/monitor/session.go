package monitor

import (
	"context"
	"errors"
	"sync"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// Sentinel errors of the ingestion path; the HTTP layer maps them to
// status codes (429, 409, 503).
var (
	// ErrQueueFull: the session's bounded ingestion queue cannot take the
	// whole batch right now — the backpressure signal. The accepted count
	// returned alongside tells the client where to resume.
	ErrQueueFull = errors.New("monitor: session queue full")
	// ErrSessionClosed: the session is draining or closed and takes no
	// more observations.
	ErrSessionClosed = errors.New("monitor: session closed")
	// ErrShuttingDown: the monitor is draining and opens no new sessions.
	ErrShuttingDown = errors.New("monitor: shutting down")
	// ErrTooManySessions: the live-session cap is reached.
	ErrTooManySessions = errors.New("monitor: too many sessions")
)

// State is a session's lifecycle position.
type State int

// Session lifecycle: observations are accepted only while active;
// draining means the queue is closed and the pipeline is finishing the
// backlog (including the final partial window); closed means every
// result is in. Failed is the supervisor's terminal parking state: the
// pipeline died abnormally more times than the restart budget allows,
// so the session takes no more observations and holds its last error
// for the operator (DELETE + re-PUT restarts from the durable log).
const (
	StateActive State = iota
	StateDraining
	StateClosed
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateFailed:
		return "failed"
	default:
		return "closed"
	}
}

// Event is one server-sent event of a session's feed: Type names the SSE
// event ("window", "transition", "closed"), Data is the JSON payload.
// Index is the absolute window index for window/transition events — the
// SSE `id:` line, which a reconnecting client echoes as Last-Event-ID to
// resume without gaps — and -1 for events that carry no window (closed).
type Event struct {
	Type  string
	Index int
	Data  []byte
}

// Session is one monitored path: a bounded ingestion queue feeding the
// streaming window pipeline on the monitor's shared engine. All methods
// are safe for concurrent use.
//
// The queue is a FIFO of columnar batches, not individual observations:
// one HTTP ingest is one push however many probes it carries, and the
// pipeline end drains whole batches per read. It holds only the batches
// actually queued, so a session costs one goroutine plus its window
// buffer and its backlog; the capacity bound (Config.QueueSize) is
// counted in observations.
type Session struct {
	id     string
	mon    *Monitor
	wcfg   core.WindowConfig
	queue  *batchQueue
	cancel context.CancelFunc
	done   chan struct{}

	rate *tokenBucket // per-session ingestion limit; nil = unlimited

	// slog is the path's durable result log (nil when the monitor has no
	// store). indexBase is the persisted window counter at pipeline
	// start: the windower numbers windows from 0 per stream, so record()
	// offsets every index by it — a re-opened path (or a supervised
	// restart of this one) continues where the last incarnation stopped.
	// slog is set before the run goroutine starts and never changes;
	// indexBase is written only by the run goroutine between pipeline
	// incarnations and read only by it during one, so neither needs s.mu.
	slog      *store.Log
	indexBase int

	mu               sync.Mutex
	state            State
	err              error // pipeline setup or source failure
	nextIndex        int   // absolute index the next window result will get
	restarts         uint64
	lost             uint64 // consumed by a crashed pipeline, never windowed
	stalled          bool   // watchdog: backlog but no window past deadline
	progressMark     time.Time
	ingested         uint64
	dropped          uint64
	evicted          uint64 // accepted, then evicted by ShedDropOldest
	rateLimited      uint64 // refused by a rate limit (subset of dropped)
	rejections       uint64 // OfferBatch calls that refused something (log sampling key)
	windows          uint64
	admitted         uint64
	rejected         uint64
	shed             uint64 // windows shed by admission control
	deadlined        uint64 // windows cut short by the per-window deadline
	probesWindowed   uint64 // observations that reached a window result
	hasDCL           bool
	bound            float64
	lastTransition   string
	lastTransitionAt float64
	results          []core.WindowResult
	firstResult      int   // absolute window index of results[0]
	storeErr         error // most recent durable-append failure
	subs             map[chan Event]bool
}

func newSession(m *Monitor, id string, wcfg core.WindowConfig) *Session {
	return &Session{
		id:    id,
		mon:   m,
		wcfg:  wcfg,
		rate:  newTokenBucket(m.cfg.SessionRate, m.cfg.SessionBurst, nil),
		queue: newBatchQueue(),
		done:  make(chan struct{}),
		subs:  make(map[chan Event]bool),
	}
}

// ID returns the session's path identifier.
func (s *Session) ID() string { return s.id }

// State returns the session's lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done is closed once the session's pipeline has fully finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// run is the session's supervisor loop (one goroutine per session; the
// identification work itself runs on the monitor's shared pool). Each
// iteration runs one pipeline incarnation over the shared ingestion
// queue. A clean end — the queue was closed by Drain, or the context
// was canceled by Abort/shutdown — closes the session. An abnormal end
// — the pipeline died with a terminal error (source failure or a
// contained panic) while the session was still accepting observations —
// is restarted after a jittered backoff: the queue stays open so
// clients keep ingesting, observations the dead incarnation consumed
// but never windowed are counted as lost, and the next incarnation
// resumes window numbering where the last one stopped. When the budget
// (Supervise.MaxRestarts within Supervise.Window) is exhausted, the
// session parks as failed with the last error attached.
func (s *Session) run(ctx context.Context) {
	sup := s.mon.cfg.Supervise
	var crashes []time.Time // abnormal deaths inside the sliding budget window
	for attempt := 0; ; attempt++ {
		s.runPipeline(ctx, attempt)

		s.mu.Lock()
		active := s.state == StateActive
		reason := s.err
		s.mu.Unlock()
		if !active || ctx.Err() != nil {
			// Drained or aborted: the pipeline consumed the closed queue
			// (flushing the final partial window) and ended for good.
			s.finish(StateClosed)
			return
		}

		// Abnormal death. Account what the dead pipeline swallowed before
		// anything else: observations it consumed from the queue but never
		// delivered to a window result are lost, not silently absorbed.
		s.noteCrashLoss()
		if reason == nil {
			reason = errors.New("monitor: pipeline exited unexpectedly")
		}
		if sup.Disable {
			// Pre-supervision behavior: an abnormal death closes the
			// session, error attached.
			s.finish(StateClosed)
			return
		}

		now := time.Now()
		crashes = append(crashes, now)
		for len(crashes) > 0 && now.Sub(crashes[0]) > sup.Window {
			crashes = crashes[1:]
		}
		if len(crashes) > sup.MaxRestarts {
			s.mon.obs.SessionFailed(s.id, len(crashes)-1, reason)
			s.finish(StateFailed)
			return
		}

		delay := sup.restartDelay(s.id, len(crashes))
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			s.finish(StateClosed)
			return
		case <-timer.C:
		}

		// Resume numbering past everything already acknowledged: the
		// in-memory high-water mark, and — because degraded-buffered and
		// dropped records also consumed indexes — the durable log's own
		// counter. Indexes are never reused, so restarted sessions produce
		// no duplicates and no gaps.
		s.mu.Lock()
		s.err = nil
		s.restarts++
		restarts := s.restarts
		base := s.nextIndex
		s.mu.Unlock()
		if s.slog != nil {
			if n := int(s.slog.NextIndex()); n > base {
				base = n
			}
		}
		s.indexBase = base
		s.mon.metrics.sessionRestarts.Add(1)
		s.mon.obs.SessionRestart(s.id, int(restarts), delay, base, reason)
	}
}

// runPipeline runs one windower incarnation over the ingestion queue,
// folding every result into the session. It returns when the result
// channel closes — by then every in-flight window of this incarnation
// has been recorded, so the session's counters are quiescent.
func (s *Session) runPipeline(ctx context.Context, attempt int) {
	var src trace.ObservationSource = &queueSource{q: s.queue}
	if wrap := s.mon.cfg.SourceWrap; wrap != nil {
		src = wrap(s.id, attempt, src)
	}
	ch, err := core.NewWindower(s.mon.engine, s.wcfg).Stream(ctx, src, s.mon.cfg.Identify)
	if err != nil {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		s.mon.obs.SessionError(s.id, s.indexBase, err)
		return
	}
	for res := range ch {
		s.record(res)
	}
}

// pendingLocked is the session's unwindowed backlog: observations
// accepted but not yet attributed to a window result, an eviction, or a
// loss — whether still in the queue or inside the pipeline's buffers.
// Caller holds s.mu.
func (s *Session) pendingLocked() int64 {
	return int64(s.ingested) - int64(s.evicted) - int64(s.probesWindowed) - int64(s.lost)
}

// noteCrashLoss charges the residual between what the session ingested
// and what is still accounted for — windowed, evicted, queued, or
// already lost — to the lost counter. Called by the supervisor between
// incarnations, when no pipeline is consuming and counters are settled.
func (s *Session) noteCrashLoss() {
	s.mu.Lock()
	resid := int64(s.ingested) - int64(s.evicted) - int64(s.probesWindowed) -
		int64(s.queue.len()) - int64(s.lost)
	if resid > 0 {
		s.lost += uint64(resid)
	}
	s.mu.Unlock()
	if resid > 0 {
		s.mon.metrics.observationsLost.Add(resid)
	}
}

// Offer appends a row-major batch to the ingestion queue without
// blocking; it is OfferBatch over a columnar conversion. It returns how
// many observations were accepted.
func (s *Session) Offer(obs []trace.Observation) (int, error) {
	return s.OfferBatch(trace.BatchOfObservations(obs))
}

// OfferBatch appends a columnar batch to the ingestion queue without
// blocking, taking ownership of b (the caller must not touch it again;
// once the pipeline has copied it, b may be reused for a later ingest).
// It returns how many observations were accepted. Admission runs in two
// stages: the global and per-session rate limits grant a budget (a short
// grant returns *RateLimitedError with a retry hint), then the granted
// prefix meets the queue under the monitor's shed policy — ShedReject
// returns ErrQueueFull for the part that did not fit (back off and resend
// from the accepted offset), ShedDropNewest drops it, ShedDropOldest
// evicts the oldest queued observations (whole batches at a time) to make
// room. Every observation is counted exactly once: accepted (ingested),
// refused (dropped, with rate-limited refusals also in rate_limited), or
// accepted-then-evicted (evicted). The whole admission is one session
// lock acquisition and at most one queue push per call, however many
// probes the batch carries.
func (s *Session) OfferBatch(b *trace.Batch) (int, error) {
	// Rejection events are emitted through this defer, which — being
	// registered before the lock's — runs AFTER s.mu is released, keeping
	// the logger (and its io.Writer) out of the admission critical section.
	var rejRate, rejQueue int
	var rejSeq uint64
	if s.mon.obs.Enabled() {
		defer func() {
			if rejRate > 0 {
				s.mon.obs.IngestReject(s.id, "rate_limited", rejRate, rejSeq)
			}
			if rejQueue > 0 {
				s.mon.obs.IngestReject(s.id, "queue_full", rejQueue, rejSeq)
			}
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateActive {
		return 0, ErrSessionClosed
	}
	met := s.mon.metrics
	n := b.Len()

	// Rate limits: take from the wide bucket first, then the narrow one,
	// refunding the difference so a session cap cannot burn global budget.
	granted, retry := s.mon.globalRate.take(n)
	g2, retry2 := s.rate.take(granted)
	s.mon.globalRate.refund(granted - g2)
	granted = g2
	if retry2 > retry {
		retry = retry2
	}
	if limited := n - granted; limited > 0 {
		s.rateLimited += uint64(limited)
		s.dropped += uint64(limited)
		met.rateLimited.Add(int64(limited))
		met.dropped.Add(int64(limited))
		rejRate = limited
	}

	// The queue bound is counted in observations; Offer under s.mu is the
	// only pusher and the pipeline only pops, so free is a safe lower
	// bound on the actual room.
	accepted, evicted := granted, 0
	lo := 0 // enqueue b[lo:accepted]
	var queueErr error
	free := s.mon.cfg.QueueSize - s.queue.len()
	if accepted > free {
		switch s.mon.cfg.Shed {
		case ShedDropOldest:
			// Evict whole queued batches, oldest first, until the grant
			// fits. Under s.mu we are the only pusher, and a racing
			// consumer only makes more room.
			for accepted > free {
				if old := s.queue.tryPop(); old != nil {
					free += old.Len()
					evicted += old.Len()
					trace.PutBatch(old)
				} else { // queue empty; the batch alone exceeds capacity
					free = s.mon.cfg.QueueSize - s.queue.len()
					if accepted > free {
						// Keep the newest `free` observations; the head is
						// accepted-then-evicted, exactly as enqueueing one
						// by one and self-evicting would leave it.
						lo = accepted - free
						evicted += lo
					}
				}
				if accepted-lo <= free {
					break
				}
			}
		case ShedDropNewest:
			if free < 0 {
				free = 0
			}
			accepted = free
		default: // ShedReject
			if free < 0 {
				free = 0
			}
			accepted = free
			queueErr = ErrQueueFull
		}
	}
	if accepted > lo {
		enq := b
		if lo > 0 || accepted < n {
			enq = b.Slice(lo, accepted)
		}
		if s.pendingLocked() == 0 {
			// The backlog just went non-empty: (re)arm the watchdog clock
			// so an idle session is never flagged for old silence.
			s.progressMark = time.Now()
		}
		s.queue.push(enq)
	}

	s.ingested += uint64(accepted)
	s.evicted += uint64(evicted)
	met.ingested.Add(int64(accepted))
	met.evicted.Add(int64(evicted))
	if over := granted - accepted; over > 0 {
		s.dropped += uint64(over)
		met.dropped.Add(int64(over))
		rejQueue = over
	}
	if rejRate > 0 || rejQueue > 0 {
		s.rejections++
		rejSeq = s.rejections
	}
	// The queue verdict outranks the rate-limit one: it concerns earlier
	// offsets, and the client resumes from `accepted` either way.
	if queueErr != nil {
		return accepted, queueErr
	}
	if granted < n {
		return accepted, &RateLimitedError{RetryAfter: retry}
	}
	return accepted, nil
}

// Drain closes the ingestion queue: the pipeline finishes the backlog,
// flushes the final partial window (when the session's window config asks
// for it), and the session transitions to closed. Idempotent.
func (s *Session) Drain() {
	s.mu.Lock()
	if s.state != StateActive {
		s.mu.Unlock()
		return
	}
	s.setStateLocked(StateDraining)
	s.queue.close()
	queued := s.queue.len()
	s.mu.Unlock()
	s.mon.obs.SessionDrain(s.id, queued)
}

// Abort drains and additionally cancels the pipeline, abandoning the
// queued backlog. Used by the monitor's shutdown deadline.
func (s *Session) Abort() {
	s.Drain()
	if s.cancel != nil {
		s.cancel()
	}
}

// Wait blocks until the session's pipeline has finished or ctx expires.
func (s *Session) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Subscribe registers an event feed with the given buffer. Events a slow
// subscriber cannot absorb are dropped (counted in the monitor metrics);
// the channel is closed when the subscription is canceled or the session
// closes. The returned cancel is idempotent and must be called.
func (s *Session) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	s.mu.Lock()
	if s.state == StateClosed || s.state == StateFailed {
		// Late subscriber: deliver the terminal event and close.
		ch <- Event{Type: "closed", Index: -1, Data: s.statusJSONLocked()}
		close(ch)
		s.mu.Unlock()
		return ch, func() {}
	}
	s.subs[ch] = true
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.subs[ch] {
			delete(s.subs, ch)
			close(ch)
		}
	}
	return ch, cancel
}

// record folds one window result into the session state and fans it out
// to subscribers, in pipeline order. With a store attached it first
// appends the result durably — the append happens outside s.mu (the log
// has its own writer lock) and before subscribers see the event, so
// anything a client ever received is already on disk under FsyncAlways.
func (s *Session) record(res core.WindowResult) {
	res.Index += s.indexBase
	if res.Trace != nil {
		// The windower numbered the trace stream-relatively and could not
		// know the path; finish it here so logs and /debug/traces carry
		// absolute, greppable coordinates.
		res.Trace.Path = s.id
		res.Trace.Window = res.Index
	}
	var storeErr error
	if s.slog != nil {
		rec := store.Record{Kind: store.KindWindow, Window: windowJSON(res)}
		storeErr = s.slog.Append(&rec)
		if storeErr == nil && res.Transition != core.TransitionNone {
			trec := store.Record{Kind: store.KindTransition, Window: rec.Window}
			storeErr = s.slog.Append(&trec)
		}
		if storeErr != nil {
			s.mon.metrics.storeAppendErrors.Add(1)
			s.mon.obs.StoreAppendError(s.id, res.Index, storeErr)
		} else if res.Trace != nil {
			res.Trace.AppendedAt = time.Now()
		}
	}
	// Observability events go out after s.mu is released (defers run in
	// reverse order, so this one fires after the unlock below): the window
	// lifecycle line, the transition event, and — for the terminal source
	// failure that previously surfaced only as a bare string in session
	// state — a window_error event with path and window index.
	if s.mon.obs.Enabled() {
		terminal := res.Err != nil && !res.Shed && !res.Admitted &&
			!errors.Is(res.Err, core.ErrNoLosses)
		defer func() {
			s.mon.obs.Window(res.Trace)
			if res.Transition != core.TransitionNone {
				var bound float64
				if res.ID != nil {
					bound = res.ID.BoundSeconds
				}
				s.mon.obs.Transition(s.id, res.Index, res.Transition.String(), bound)
			}
			if terminal {
				s.mon.obs.SessionError(s.id, res.Index, res.Err)
			}
		}()
	}
	met := s.mon.metrics
	expired := res.Err != nil && errors.Is(res.Err, core.ErrWindowDeadline)
	switch {
	case res.Shed:
		met.windowsShed.Add(1)
	case res.Admitted:
		met.windowsAdmitted.Add(1)
		met.observeLatency(res.Elapsed)
		if expired {
			met.windowsDeadline.Add(1)
		}
	case res.Err == nil:
		met.windowsRejected.Add(1)
	}
	if s.mon.breaker != nil && res.Admitted {
		// Deadline expiries count as pathological even when Elapsed
		// (cut short by the timeout) is under the breaker deadline.
		s.mon.breaker.observe(res.Elapsed, expired)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows++
	s.probesWindowed += uint64(res.Probes())
	if res.Index >= s.nextIndex {
		s.nextIndex = res.Index + 1
	}
	// Any emitted result is progress: clear the watchdog flag and restamp.
	s.stalled = false
	s.progressMark = time.Now()
	switch {
	case res.Shed:
		s.shed++
	case res.Admitted:
		s.admitted++
		if expired {
			s.deadlined++
		}
	case res.Err == nil:
		s.rejected++
	default:
		s.err = res.Err // terminal source failure
	}
	if res.Decided() {
		s.hasDCL = res.HasDCL()
		if s.hasDCL {
			s.bound = res.ID.BoundSeconds
		}
	}
	if res.Transition != core.TransitionNone {
		s.lastTransition = res.Transition.String()
		s.lastTransitionAt = res.StartTime
	}
	if s.firstResult == 0 && len(s.results) == 0 && s.indexBase == 0 {
		s.firstResult = res.Index
	}
	if storeErr != nil {
		s.storeErr = storeErr
	}
	s.results = append(s.results, res)
	if over := len(s.results) - s.mon.cfg.MaxResults; over > 0 {
		s.results = append(s.results[:0], s.results[over:]...)
		s.firstResult += over
	}

	data := mustJSON(eventJSON{Path: s.id, WindowJSON: windowJSON(res)})
	s.broadcastLocked(Event{Type: "window", Index: res.Index, Data: data})
	if res.Transition != core.TransitionNone {
		s.broadcastLocked(Event{Type: "transition", Index: res.Index, Data: data})
	}
}

// broadcastLocked fans an event out to every subscriber, dropping it for
// subscribers whose buffer is full. Caller holds s.mu.
func (s *Session) broadcastLocked(ev Event) {
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.mon.metrics.eventsDropped.Add(1)
		}
	}
}

// finish parks the session in a terminal state (closed, or failed when
// the supervisor gave up) and releases every subscriber. The SSE
// terminal event keeps the "closed" type either way — the stream is
// over — with the carried status JSON naming the actual state.
func (s *Session) finish(st State) {
	s.mu.Lock()
	s.stalled = false
	// Terminal accounting: nothing further will be windowed, so whatever
	// backlog remains — observations abandoned in the queue by an abort,
	// a park, or a crash during drain — is explicitly lost. A clean drain
	// leaves a zero residual and this is a no-op.
	resid := s.pendingLocked()
	if resid > 0 {
		s.lost += uint64(resid)
	}
	s.setStateLocked(st)
	ev := Event{Type: "closed", Index: -1, Data: s.statusJSONLocked()}
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.mon.metrics.eventsDropped.Add(1)
		}
		delete(s.subs, ch)
		close(ch)
	}
	windows, ingested, dropped := s.windows, s.ingested, s.dropped
	errStr := ""
	if s.err != nil {
		errStr = s.err.Error()
	}
	s.mu.Unlock()
	if resid > 0 {
		s.mon.metrics.observationsLost.Add(resid)
	}
	s.mon.obs.SessionClosed(s.id, windows, ingested, dropped, errStr)
	close(s.done)
}

// setStateLocked moves the session between states, keeping the per-state
// gauges in step. Caller holds s.mu.
func (s *Session) setStateLocked(st State) {
	if st == s.state {
		return
	}
	s.mon.metrics.gauge(s.state).Add(-1)
	s.mon.metrics.gauge(st).Add(1)
	s.state = st
}

// Results returns JSON-ready snapshots of the retained window results
// with absolute index >= since, plus the index to resume polling from.
// Indexes below the in-memory ring — trimmed by MaxResults, or produced
// by an earlier incarnation of this path before a restart — are served
// from the durable store when one is attached: the store's record model
// IS the wire model, so replayed windows are byte-identical to what the
// original process served.
func (s *Session) Results(since int) ([]WindowJSON, int) {
	out, next := []WindowJSON{}, 0
	s.eachResult(since, func(n int) error {
		next = n
		return nil
	}, func(w *WindowJSON) error {
		out = append(out, *w)
		return nil
	})
	return out, next
}

// eachResult walks the window results with absolute index >= since, in
// index order, without collecting them. Under s.mu it snapshots the
// in-memory ring (at most MaxResults records) and next, the index to
// resume polling from, and hands next to head before any record. It then
// passes fn each durable record in [since, first) as the log scan yields
// it — the scan holds one segment in memory and no log lock while fn
// runs — followed by the ring snapshot. The scan stops at the ring's
// first index, so no window is passed twice. fn must not retain w. The
// first error from head or fn stops the walk and is returned.
func (s *Session) eachResult(since int, head func(next int) error, fn func(w *WindowJSON) error) error {
	s.mu.Lock()
	first := s.firstResult
	start := min(max(since-first, 0), len(s.results))
	ring := make([]WindowJSON, 0, len(s.results)-start)
	for _, res := range s.results[start:] {
		ring = append(ring, windowJSON(res))
	}
	next := first + len(s.results)
	s.mu.Unlock()

	if err := head(next); err != nil {
		return err
	}
	if since < first && s.slog != nil {
		// Each record is copied into w: passing &rec.Window would move
		// every scanned Record to the heap.
		var w WindowJSON
		err := s.slog.Scan(int64(since), func(rec store.Record) error {
			if rec.Kind != store.KindWindow {
				return nil
			}
			if rec.Window.Window >= first {
				return store.ErrStop
			}
			w = rec.Window
			return fn(&w)
		})
		if err != nil {
			return err
		}
	}
	for i := range ring {
		if err := fn(&ring[i]); err != nil {
			return err
		}
	}
	return nil
}

// Status returns a JSON-ready snapshot of the session.
func (s *Session) Status() StatusJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Session) statusLocked() StatusJSON {
	st := StatusJSON{
		Path:             s.id,
		State:            s.state.String(),
		Ingested:         s.ingested,
		Dropped:          s.dropped,
		Evicted:          s.evicted,
		RateLimited:      s.rateLimited,
		QueueLen:         s.queue.len(),
		QueueCap:         s.mon.cfg.QueueSize,
		Windows:          s.windows,
		Admitted:         s.admitted,
		Rejected:         s.rejected,
		Shed:             s.shed,
		Deadlined:        s.deadlined,
		ProbesWindowed:   s.probesWindowed,
		HasDCL:           s.hasDCL,
		LastTransition:   s.lastTransition,
		LastTransitionAt: s.lastTransitionAt,
		Restarts:         s.restarts,
		Lost:             s.lost,
		Stalled:          s.stalled,
	}
	if s.hasDCL {
		st.BoundSeconds = s.bound
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	if s.storeErr != nil {
		st.StoreError = s.storeErr.Error()
	}
	return st
}

func (s *Session) statusJSONLocked() []byte { return mustJSON(s.statusLocked()) }
