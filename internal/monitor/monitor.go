// Package monitor is the multi-path monitoring service over the streaming
// identification pipeline: the paper's end goal — continuous, lightweight
// monitoring of live paths from end-end probes alone — as a long-running
// daemon instead of a one-shot CLI. A Monitor manages many concurrent
// per-path sessions; each session owns a bounded ingestion queue feeding
// an ObservationSource into a core.Windower, and every session's window
// identifications multiplex onto one shared engine pool, so hundreds of
// paths cost hundreds of cheap goroutines but only `workers` EM fits in
// flight. The HTTP surface (Handler) is stdlib-only: JSON/CSV ingestion
// with 429 backpressure, per-window results, an SSE transition feed,
// session registry, expvar-style metrics, and graceful drain.
//
// cmd/dclserved wraps a Monitor into the daemon; the facade's NewMonitor
// re-exports it as an embeddable library.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/obs"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// Config shapes a Monitor. The zero value is serviceable: GOMAXPROCS
// identification workers, 4096-observation session queues, 512 retained
// windows per session, 1024 live sessions, 3000-probe tumbling windows
// with the stationarity gate on and the final partial window flushed.
type Config struct {
	// Workers is the shared identification pool size (0 = GOMAXPROCS).
	// This bounds concurrent EM fits across ALL sessions.
	Workers int
	// QueueSize bounds each session's ingestion queue, counted in
	// observations (default 4096); a full queue is the 429 signal. The
	// queue holds only the batches actually queued, so its memory follows
	// the backlog, not this bound.
	QueueSize int
	// MaxResults bounds each session's retained window-result history
	// (default 512); older windows fall off the front.
	MaxResults int
	// MaxSessions caps concurrently live (non-closed) sessions
	// (default 1024).
	MaxSessions int
	// Window is the default per-session window shape; sessions created
	// with an explicit spec override it. Zero value: 3000-probe tumbling
	// windows, FlushPartial on.
	Window core.WindowConfig
	// Identify configures every session's identification; the zero value
	// is the paper's defaults.
	Identify core.IdentifyConfig

	// SessionRate limits each session's ingestion to this many
	// observations per second (token bucket, burst SessionBurst; a zero
	// burst defaults to one second's worth). 0 = unlimited. Refused
	// observations surface as *RateLimitedError with a retry hint.
	SessionRate  float64
	SessionBurst int
	// GlobalRate is the monitor-wide ingestion ceiling across all
	// sessions, same semantics as SessionRate. 0 = unlimited.
	GlobalRate  float64
	GlobalBurst int

	// Shed selects what a full session queue does with overflow:
	// reject it back to the client (default), drop the newest, or evict
	// the oldest queued observations.
	Shed ShedPolicy

	// Breaker configures the identification-latency circuit breaker; the
	// zero value (Deadline 0) disables it. An open breaker sheds whole
	// windows with explicit Shed results instead of queuing them behind a
	// saturated EM pool.
	Breaker BreakerConfig

	// Store, when non-nil, is the durable result log: every session
	// appends its window results and transition events there, reloads its
	// window counter from it on re-open (a re-PUT of a known path resumes
	// numbering instead of restarting at 0), and serves `?since=` offsets
	// that fell out of the memory ring from disk. The caller owns the
	// store's lifecycle; Close only flushes it.
	Store *store.Store
	// StoreDir, when Store is nil and this is non-empty, opens a store
	// rooted here with default options (interval fsync, 1 MiB segments,
	// unbounded retention) that the Monitor owns and closes. cmd/dclserved
	// builds its own Store from flags instead.
	StoreDir string

	// EngineHook, when non-nil, runs at the front of every window
	// identification on the shared engine. It exists for fault injection
	// and test instrumentation (injected EM latency, forced failures);
	// leave it nil in production.
	EngineHook func(ctx context.Context) error

	// Supervise shapes the per-session restart policy (see
	// SupervisorConfig). The zero value supervises with defaults; set
	// Supervise.Disable for the pre-supervision behavior where an
	// abnormal pipeline death closes the session.
	Supervise SupervisorConfig
	// SourceWrap, when non-nil, wraps each pipeline incarnation's
	// observation source (the session queue) before the windower reads
	// it; attempt counts incarnations from 0. It exists for fault
	// injection — a wrapper that errors or panics exercises the
	// supervisor exactly where a real source failure would; leave it nil
	// in production.
	SourceWrap func(path string, attempt int, src trace.ObservationSource) trace.ObservationSource
	// Watchdog, when > 0, flags sessions that have queued observations
	// but emit no window for this long (a wedged source or a stuck fit;
	// pick a deadline comfortably above the expected window fill time).
	// The flag surfaces in session status, /readyz, the watchdog_stalls
	// counter, and a watchdog_stall event; it clears on the next emitted
	// window. 0 disables the watchdog.
	Watchdog time.Duration

	// Logger turns the observability layer on: every session's windows get
	// lifecycle traces (window config CollectTrace is forced on), emitted
	// as structured log lines along with session/admission/store/HTTP
	// events (package obs documents the event vocabulary), and the slowest
	// window traces are served at GET /debug/traces. Nil (the default)
	// disables all of it at zero cost on the window path.
	Logger *slog.Logger
	// TraceSample is the fraction of routine window_done log lines emitted
	// (deterministic per (path, window); <= 0 or >= 1 logs every window).
	// Shed, deadline-expired and errored windows are always logged.
	TraceSample float64
	// TraceRing bounds the slowest-trace ring behind GET /debug/traces
	// (0 = obs.DefaultRingSize, < 0 disables the ring).
	TraceRing int
}

func (c *Config) defaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 512
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.Window.Size <= 0 && c.Window.Duration <= 0 {
		c.Window = core.WindowConfig{Size: 3000, FlushPartial: true}
	}
	c.Supervise.defaults()
}

// Monitor is the session registry plus the shared identification engine
// and the monitor-wide admission state (global rate limit, circuit
// breaker). Safe for concurrent use; construct with New.
type Monitor struct {
	cfg        Config
	engine     *core.Engine
	metrics    *metrics
	obs        *obs.Observer // nil when no Logger is configured (a valid no-op)
	breaker    *breaker      // nil when the breaker is disabled
	globalRate *tokenBucket  // nil when unlimited
	store      *store.Store  // nil when durability is off
	ownStore   bool          // the monitor opened it (StoreDir) and closes it
	storeErr   error         // a StoreDir that failed to open; surfaced by Open

	mu       sync.Mutex
	sessions map[string]*Session
	closing  bool
	wg       sync.WaitGroup

	// Progress watchdog (Config.Watchdog > 0): one goroutine, started
	// with the first session, stopped by Close. watchOn guards the start
	// (under mu); watchStopOnce guards the stop.
	watchOn       bool
	watchStop     chan struct{}
	watchDone     chan struct{}
	watchStopOnce sync.Once
}

// New returns a ready Monitor. It allocates no goroutines until the
// first session opens.
func New(cfg Config) *Monitor {
	cfg.defaults()
	engine := core.NewSharedEngine(cfg.Workers)
	if cfg.EngineHook != nil {
		engine.SetIdentifyHook(cfg.EngineHook)
	}
	met := newMetrics()
	observer := obs.New(obs.Options{
		Logger: cfg.Logger, Sample: cfg.TraceSample, RingSize: cfg.TraceRing,
	})
	m := &Monitor{
		cfg:        cfg,
		engine:     engine,
		metrics:    met,
		obs:        observer,
		breaker:    newBreaker(cfg.Breaker, nil, met, observer),
		globalRate: newTokenBucket(cfg.GlobalRate, cfg.GlobalBurst, nil),
		sessions:   make(map[string]*Session),
	}
	switch {
	case cfg.Store != nil:
		m.store = cfg.Store
	case cfg.StoreDir != "":
		// New has no error return; a store that fails to open surfaces as
		// the error of every subsequent Open, so the daemon fails loudly on
		// the first PUT instead of silently running without durability.
		m.store, m.storeErr = store.Open(store.Options{Dir: cfg.StoreDir, Logger: cfg.Logger})
		m.ownStore = m.storeErr == nil
	}
	if m.store != nil {
		met.attachStore(m.store.Metrics())
	}
	return m
}

// Store returns the monitor's durable result store, nil when durability
// is off.
func (m *Monitor) Store() *store.Store { return m.store }

// BreakerState reports the circuit breaker's state ("closed", "open",
// "half-open", or "disabled" when no breaker is configured).
func (m *Monitor) BreakerState() string { return m.breaker.State() }

// Observer returns the monitor's observability sink (nil — a valid no-op —
// when no Logger was configured).
func (m *Monitor) Observer() *obs.Observer { return m.obs }

// validateID keeps path identifiers printable, short, and slash-free so
// they embed cleanly in URLs and logs.
func validateID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("monitor: path id must be 1..128 bytes")
	}
	if strings.ContainsAny(id, "/\\ \t\n\r") {
		return fmt.Errorf("monitor: path id %q contains a separator", id)
	}
	return nil
}

// Open returns the session for id, creating it when absent (created
// reports which). A nil wcfg uses the monitor's default window config; a
// non-nil one applies only on creation. Opening fails while the monitor
// is shutting down, when the live-session cap is reached, or when the
// window config is invalid.
func (m *Monitor) Open(id string, wcfg *core.WindowConfig) (s *Session, created bool, err error) {
	if err := validateID(id); err != nil {
		return nil, false, err
	}
	cfg := m.cfg.Window
	if wcfg != nil {
		cfg = *wcfg
	}
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	// With observability on, every window carries a lifecycle trace: the
	// windower stamps the spans, record() the path and append time.
	cfg.CollectTrace = cfg.CollectTrace || m.obs.Enabled()
	if m.breaker != nil {
		// The breaker decides admission after any caller-provided policy,
		// so a custom Admit cannot accidentally bypass overload protection.
		user := cfg.Admit
		cfg.Admit = func(res *core.WindowResult) error {
			if user != nil {
				if err := user(res); err != nil {
					return err
				}
			}
			return m.breaker.admit(res)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.sessions[id]; s != nil {
		return s, false, nil
	}
	if m.closing {
		return nil, false, ErrShuttingDown
	}
	if m.storeErr != nil {
		return nil, false, m.storeErr
	}
	live := 0
	for _, s := range m.sessions {
		// Closed and failed sessions hold no pipeline; they stay in the
		// registry for inspection but do not count against the cap.
		if st := s.State(); st != StateClosed && st != StateFailed {
			live++
		}
	}
	if live >= m.cfg.MaxSessions {
		return nil, false, ErrTooManySessions
	}
	s = newSession(m, id, cfg)
	if m.store != nil {
		// Acquire the path's durable log; a re-opened path resumes window
		// numbering where the persisted counter left off. The registry
		// guarantees one live session per id, which is the log's
		// single-writer contract.
		slog, err := m.store.Log(id)
		if err != nil {
			return nil, false, err
		}
		s.slog = slog
		s.indexBase = int(slog.NextIndex())
		s.firstResult = s.indexBase
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	m.sessions[id] = s
	m.metrics.gauge(StateActive).Add(1)
	if m.cfg.Watchdog > 0 && !m.watchOn {
		m.watchOn = true
		m.watchStop = make(chan struct{})
		m.watchDone = make(chan struct{})
		go m.watchLoop(m.cfg.Watchdog)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s.run(ctx)
	}()
	m.obs.SessionOpen(id, s.indexBase)
	return s, true, nil
}

// Session returns the session for id, if present.
func (m *Monitor) Session(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Remove deletes a closed or failed session from the registry, freeing
// its retained results. It refuses to remove a live session (drain it
// first). Removing a failed path is how an operator clears it for a
// fresh PUT — the new session resumes numbering from the durable log.
func (m *Monitor) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return false
	}
	st := s.State()
	if st != StateClosed && st != StateFailed {
		return false
	}
	delete(m.sessions, id)
	m.metrics.gauge(st).Add(-1)
	return true
}

// Statuses returns a snapshot of every registered session, sorted by id.
func (m *Monitor) Statuses() []StatusJSON {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	out := make([]StatusJSON, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LatencyStats returns a point-in-time copy of the identification latency
// histogram — the per-window EM wall-clock distribution across every
// session — for load tests and operational dashboards that want the
// percentiles without scraping /metrics.
func (m *Monitor) LatencyStats() LatencyStats {
	return m.metrics.snapshotLatency()
}

// Closing reports whether shutdown has begun.
func (m *Monitor) Closing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closing
}

// Close drains the monitor: no new sessions or observations are accepted,
// every session's queue is closed, and Close waits for all pipelines to
// finish their backlog (flushing final partial windows). If ctx expires
// first, the remaining sessions are aborted — their queued backlog is
// abandoned — and ctx's error is returned once they have stopped. A
// failed final store flush (a store still degraded at shutdown drops its
// pending buffer) is returned too, so callers can exit non-zero on a
// lossy shutdown.
func (m *Monitor) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closing = true
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	watchOn := m.watchOn
	m.mu.Unlock()

	if watchOn {
		m.watchStopOnce.Do(func() { close(m.watchStop) })
		<-m.watchDone
	}
	for _, s := range ss {
		s.Drain()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	// Flush (or, when the monitor opened it from StoreDir, close) the
	// durable store once every pipeline has appended its final windows —
	// the drain-time flush that makes a clean shutdown lose nothing even
	// under FsyncNone.
	flush := func() error {
		if m.store == nil {
			return nil
		}
		if m.ownStore {
			return m.store.Close()
		}
		return m.store.SyncAll()
	}
	select {
	case <-done:
		return flush()
	case <-ctx.Done():
		for _, s := range ss {
			s.Abort()
		}
		<-done
		flush()
		return ctx.Err()
	}
}

// mustJSON marshals values whose shape the package controls; a failure is
// a programming error.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
