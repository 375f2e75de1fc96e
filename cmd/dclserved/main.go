// Command dclserved is the multi-path monitoring daemon: an HTTP service
// that runs model-based dominant-congested-link identification
// continuously over many probe streams at once. Measurement agents POST
// observation batches (JSON or CSV) to per-path sessions; each session
// cuts its stream into sliding windows, gates them on stationarity, and
// identifies admitted windows on one shared worker pool. Verdicts are
// served as JSON and as a live SSE feed of DCL onset/cleared/bound
// transitions.
//
// Usage:
//
//	dclserved -addr :8844 [-window 3000] [-stride 1000] [-workers 8] [-queue 4096]
//	          [-session-rate 5000] [-global-rate 50000] [-shed reject|drop-newest|drop-oldest]
//	          [-window-deadline 10s] [-breaker-deadline 2s] [-breaker-trips 3] [-breaker-cooldown 5s]
//	          [-store-dir /var/lib/dcl] [-fsync always|interval|none] [-fsync-every 100ms]
//	          [-retain-bytes 104857600] [-retain-age 720h]
//	          [-restarts 5] [-restart-window 1m] [-restart-backoff 100ms] [-watchdog 0]
//	          [-log-level info] [-log-format text|json] [-trace-sample 0.1] [-trace-ring 64]
//
// With -store-dir, every window result and DCL transition is appended to
// a per-path segmented WAL: results survive crashes and restarts, a
// re-created path resumes window numbering from the persisted counter,
// and ?since=/Last-Event-ID offsets older than the in-memory ring are
// served from disk. Inspect a store offline with dclstore. A disk fault
// (ENOSPC, EIO) degrades the store to a bounded in-memory buffer instead
// of failing ingestion; it drains back to disk automatically once the
// disk answers again (watch store_degraded/store_recovered and /readyz).
//
// The daemon self-heals: a session whose pipeline dies (source failure,
// contained panic) is restarted with backoff and resumes window numbering
// with no gaps; after -restarts failures within -restart-window the path
// is parked as "failed" with its error in the registry (DELETE + re-PUT
// to retry). -watchdog flags sessions with a backlog but no emitted
// window past the deadline. /livez answers 200 whenever the process
// serves; /readyz reports per-component health and 503s only while
// draining (see docs/OPERATIONS.md "Health model").
//
// API (see DESIGN.md "Monitoring service" for details):
//
//	PUT    /v1/paths/{id}                 create a session (optional JSON window spec)
//	POST   /v1/paths/{id}/observations    ingest a batch; 429 asks the client to back off
//	GET    /v1/paths/{id}/results         decided windows as JSON (?since=N to poll)
//	GET    /v1/paths/{id}/events          SSE: window / transition / closed events
//	DELETE /v1/paths/{id}                 drain the session, flushing its final partial window
//	GET    /v1/paths                      session registry
//	GET    /livez, /readyz, /metrics      liveness, readiness and counters (/healthz = /readyz)
//	GET    /debug/traces                  slowest recent window traces (JSON)
//	GET    /debug/pprof/...               profiling (only with -pprof)
//
// Structured logging is always on (stderr, -log-level info by default):
// every window emits a lifecycle log line with span timings (sampled per
// -trace-sample; abnormal windows always logged), plus discrete events for
// transitions, sheds, breaker trips, rate-limit rejections and store
// recoveries. -log-format json makes the stream machine-parseable; see
// docs/OPERATIONS.md for the event vocabulary and what to grep when.
//
// On SIGINT/SIGTERM the daemon drains: sessions finish their queued
// backlog and flush final partial windows under the -drain deadline, then
// the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/monitor"
	"dominantlink/internal/obs"
	"dominantlink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dclserved: ")
	var (
		addr     = flag.String("addr", ":8844", "listen address")
		workers  = flag.Int("workers", 0, "cores of EM, across all paths: shared window slots, idle ones lent to a window's restarts (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 4096, "per-session ingestion queue bound, in observations (memory follows the backlog)")
		results  = flag.Int("results", 512, "retained window results per session")
		sessions = flag.Int("max-sessions", 1024, "live session cap")
		window   = flag.String("window", "3000", "default window: probe count or duration (e.g. 3000, 60s)")
		stride   = flag.String("stride", "", "default stride between window starts (default = window: tumbling)")
		gate     = flag.Bool("gate", true, "admit only stationary windows to identification")
		model    = flag.String("model", "mmhd", "inference model: mmhd or hmm")
		m        = flag.Int("m", 5, "number of delay symbols M")
		n        = flag.Int("n", 2, "number of hidden states N")
		x        = flag.Float64("x", 0.06, "WDCL loss parameter x")
		y        = flag.Float64("y", 0, "WDCL delay parameter y (0 = the paper's strict delay condition)")
		seed     = flag.Int64("seed", 1, "EM initialization seed")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
		pprofOn  = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints")

		// Observability (see docs/OPERATIONS.md for the event vocabulary).
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json (one object per line)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of routine window_done log lines emitted (0 or 1 = all; abnormal windows always logged)")
		traceRing   = flag.Int("trace-ring", 0, "slowest-window trace ring size behind /debug/traces (0 = default 64, <0 disables)")

		// Durable result store (off unless -store-dir is set; see DESIGN.md
		// "Durability").
		storeDir    = flag.String("store-dir", "", "durable result store directory (empty = results are memory-only)")
		fsync       = flag.String("fsync", "interval", "store fsync policy: always, interval or none")
		fsyncEvery  = flag.Duration("fsync-every", 100*time.Millisecond, "flush period under -fsync interval")
		retainBytes = flag.Int64("retain-bytes", 0, "per-path store size bound; oldest segments deleted beyond it, always keeping the newest sealed one (0 = unbounded)")
		retainAge   = flag.Duration("retain-age", 0, "drop store segments whose newest record is older than this (0 = unbounded)")

		// Overload controls (all off by default; see DESIGN.md "Overload
		// behavior").
		sessionRate  = flag.Float64("session-rate", 0, "per-session ingestion limit, observations/sec (0 = unlimited)")
		sessionBurst = flag.Int("session-burst", 0, "per-session rate-limit burst (0 = one second's worth)")
		globalRate   = flag.Float64("global-rate", 0, "monitor-wide ingestion limit, observations/sec (0 = unlimited)")
		globalBurst  = flag.Int("global-burst", 0, "global rate-limit burst (0 = one second's worth)")
		shed         = flag.String("shed", "reject", "full-queue policy: reject, drop-newest or drop-oldest")
		windowDL     = flag.Duration("window-deadline", 0, "per-window identification deadline (0 = none)")
		breakerDL    = flag.Duration("breaker-deadline", 0, "identification latency that counts as pathological; 0 disables the circuit breaker")
		breakerTrips = flag.Int("breaker-trips", 3, "consecutive slow windows that open the breaker")
		breakerCool  = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker sheds before probing")

		// Self-healing (see docs/OPERATIONS.md "Self-healing").
		restarts       = flag.Int("restarts", 5, "session restart budget within -restart-window before parking it as failed (0 = default)")
		restartWindow  = flag.Duration("restart-window", time.Minute, "sliding window the restart budget counts crashes in")
		restartBackoff = flag.Duration("restart-backoff", 100*time.Millisecond, "initial restart backoff (doubles per crash, jittered)")
		noRestart      = flag.Bool("no-restart", false, "disable session supervision: a crashed pipeline closes its session")
		watchdog       = flag.Duration("watchdog", 0, "flag sessions with a backlog but no emitted window for this long (0 = off)")
	)
	flag.Parse()

	cfg := core.IdentifyConfig{
		Symbols: *m, HiddenStates: *n,
		Seed: *seed,
	}.WithX(*x).WithY(*y)
	switch *model {
	case "mmhd":
		cfg.Model = core.MMHD
	case "hmm":
		cfg.Model = core.HMM
	default:
		log.Fatalf("unknown model %q", *model)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	wcfg, err := windowConfig(*window, *stride, *gate)
	if err != nil {
		log.Fatal(err)
	}
	wcfg.Deadline = *windowDL
	shedPolicy, err := monitor.ParseShedPolicy(*shed)
	if err != nil {
		log.Fatal(err)
	}
	var resultStore *store.Store
	if *storeDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		resultStore, err = store.Open(store.Options{
			Dir:         *storeDir,
			Fsync:       policy,
			FsyncEvery:  *fsyncEvery,
			RetainBytes: *retainBytes,
			RetainAge:   *retainAge,
			Logger:      logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("result store at %s (fsync=%s)", *storeDir, policy)
	}

	mon := monitor.New(monitor.Config{
		Workers:     *workers,
		QueueSize:   *queue,
		MaxResults:  *results,
		MaxSessions: *sessions,
		Window:      wcfg,
		Identify:    cfg,

		Store: resultStore,

		SessionRate: *sessionRate, SessionBurst: *sessionBurst,
		GlobalRate: *globalRate, GlobalBurst: *globalBurst,
		Shed: shedPolicy,
		Breaker: monitor.BreakerConfig{
			Deadline: *breakerDL,
			Trips:    *breakerTrips,
			Cooldown: *breakerCool,
		},
		Supervise: monitor.SupervisorConfig{
			Disable:     *noRestart,
			MaxRestarts: *restarts,
			Window:      *restartWindow,
			Backoff:     *restartBackoff,
		},
		Watchdog: *watchdog,

		Logger:      logger,
		TraceSample: *traceSample,
		TraceRing:   *traceRing,
	})
	var handler http.Handler = mon.Handler()
	if *pprofOn {
		// Mount the profiler next to the API so CPU/heap profiles can be
		// correlated with the identify-latency histogram on /metrics. Off by
		// default: pprof leaks operational detail and costs CPU when
		// profiled, so it is opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (workers=%d queue=%d window=%s)", *addr, *workers, *queue, *window)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining sessions (deadline %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// A shutdown that lost data exits non-zero so supervisors and CI
	// notice: the drain deadline expiring abandons queued backlog, and a
	// failed final store flush (a store still degraded at shutdown) drops
	// its pending buffer.
	lossy := false
	if err := mon.Close(dctx); err != nil {
		lossy = true
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("drain deadline exceeded: remaining sessions aborted, queued backlog abandoned: %v", err)
		} else {
			log.Printf("final store flush failed: %v", err)
		}
	}
	if resultStore != nil {
		// Close after the monitor drain: every session has appended its
		// final windows, so this is the drain-time flush — a clean shutdown
		// loses nothing even under -fsync none.
		if err := resultStore.Close(); err != nil {
			lossy = true
			log.Printf("store close failed, pending results dropped: %v", err)
		}
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if lossy {
		log.Print("shutdown was lossy; exiting non-zero")
		os.Exit(1)
	}
	log.Print("bye")
}

// windowConfig parses the -window/-stride spans into the monitor's
// default window shape. The final partial window of a drained session is
// always flushed.
func windowConfig(window, stride string, gate bool) (core.WindowConfig, error) {
	wcfg := core.WindowConfig{DisableGate: !gate, FlushPartial: true}
	count, dur, err := parseSpan(window)
	if err != nil {
		return wcfg, fmt.Errorf("-window: %v", err)
	}
	wcfg.Size, wcfg.Duration = count, dur
	if stride != "" {
		count, dur, err := parseSpan(stride)
		if err != nil {
			return wcfg, fmt.Errorf("-stride: %v", err)
		}
		if (wcfg.Size > 0) != (count > 0) {
			return wcfg, errors.New("-stride must use the same unit as -window (both counts or both durations)")
		}
		wcfg.Stride, wcfg.StrideDuration = count, dur
	}
	return wcfg, nil
}

// parseSpan reads a span flag: a bare integer is a probe count, anything
// else is tried as a duration ("90s", "5m").
func parseSpan(s string) (count int, seconds float64, err error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("probe count %d must be positive", n)
		}
		return n, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, 0, fmt.Errorf("%q is neither a probe count nor a duration", s)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("duration %v must be positive", d)
	}
	return 0, d.Seconds(), nil
}
