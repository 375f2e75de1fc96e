// Package dominantlink identifies whether a dominant congested link — a
// single link responsible for (almost) all losses and the dominant share
// of queuing delay — exists along an end-end network path, using only a
// sequence of one-way delay/loss observations from periodic probes.
//
// It is a from-scratch reproduction of Wei, Wang, Towsley and Kurose,
// "Model-Based Identification of Dominant Congested Links" (ACM IMC 2003;
// extended version IEEE/ACM ToN 19(2), 2011), including every substrate
// the paper's evaluation depends on: a packet-level discrete-event network
// simulator with droptail and adaptive-RED queues, TCP Reno / HTTP-like /
// on-off UDP traffic sources, the loss-pair comparison baseline, clock
// offset/skew removal for one-way delays, and EM parameter inference for
// hidden Markov models (HMM) and Markov models with a hidden dimension
// (MMHD) extended with loss-as-missing-value observations.
//
// This package is the stable facade over the internal implementation: it
// re-exports the measurement-side trace types and the identification
// pipeline. Typical use:
//
//	tr := &dominantlink.Trace{Observations: obs} // delays + losses
//	id, err := dominantlink.Identify(tr, dominantlink.IdentifyConfig{})
//	if err != nil { ... }
//	if id.WDCL.Accept {
//	    fmt.Printf("dominant congested link, Q <= %v\n", id.BoundSeconds)
//	}
//
// # Configuration contract
//
// The zero value of IdentifyConfig reproduces the paper's defaults (MMHD,
// M=5, N=2, EM threshold 1e-3, 5 restarts, x=y=0.06); DefaultConfig
// returns the same defaults materialized into every field. Because zero
// means "use the default", a literal X=0, Y=0 or Tolerance=0 needs an
// exact-match marker alongside the value, or it would silently become the
// paper default. The WithX, WithY and WithTolerance builders set the
// value and its marker together and are the recommended way to override
// these fields:
//
//	cfg := dominantlink.IdentifyConfig{}.WithY(0) // strict WDCL(x, 0)
//
// The underlying ExactX/ExactY/ExactTolerance marker fields remain for
// struct-literal construction and older callers:
//
//	cfg := dominantlink.DefaultConfig()
//	cfg.Y, cfg.ExactY = 0, true // equivalent, pre-builder form
//
// Deprecated: setting the Exact* markers by hand is error-prone (a value
// without its marker, or vice versa, silently changes meaning); new code
// should prefer the With* builders.
//
// # Cancellation contract
//
// Every potentially long-running entry point is context-first.
// IdentifyContext is the canonical form — Identify is shorthand for
// IdentifyContext(context.Background(), ...) — and IdentifyBatch,
// IdentifyStream and Engine.IdentifyJobs all take ctx as their first
// argument. Cancellation is prompt: a canceled context stops batch work
// at the next restart boundary, and interrupts a running EM fit at the
// next iteration (this is also how per-window deadlines preempt a fit
// mid-flight). Cancellation never changes results that do complete:
// for a fixed Seed, outcomes are bit-identical with or without a context.
//
// # Batch identification
//
// Identification of many traces or stationary segments — and of the EM
// restarts inside a single identification — is embarrassingly parallel.
// IdentifyBatch fans a batch out over a bounded worker pool with per-trace
// error isolation and context cancellation:
//
//	results := dominantlink.IdentifyBatch(ctx, traces, cfg)
//	for _, res := range results {
//	    switch {
//	    case errors.Is(res.Err, dominantlink.ErrNoLosses):
//	        continue // segment unusable, not a failure
//	    case res.Err != nil:
//	        return res.Err
//	    case res.ID.HasDCL():
//	        fmt.Printf("trace %d: %s\n", res.Index, res.ID.Summary())
//	    }
//	}
//
// Batching never changes verdicts: each trace is identified exactly as a
// lone Identify call would — per-restart seeds derive from the restart
// index and log-likelihood ties resolve to the lowest index — so results
// are reproducible from the Seed no matter how the work is scheduled.
// NewEngine gives control over the pool size, and Engine.IdentifyJobs
// accepts a per-job configuration for parameter sweeps.
//
// # Streaming identification
//
// Where Identify judges one finished trace, IdentifyStream watches an
// observation stream continuously: it cuts the stream into sliding
// windows (WindowConfig: by probe count or duration), admits each window
// through the stationarity check, identifies admitted windows
// concurrently while emitting results strictly in window order, and
// attaches dominant-congested-link transitions (onset, cleared, bound
// changed) by comparing consecutive decided windows:
//
//	results, err := dominantlink.IdentifyStream(ctx,
//	    dominantlink.StreamCSV(f),
//	    dominantlink.WindowConfig{Size: 3000, Stride: 1000}, cfg)
//	if err != nil { ... }
//	for res := range results {
//	    if res.Transition == dominantlink.TransitionOnset { ... }
//	}
//
// Sources are pull iterators (ObservationSource); StreamCSV reads a
// capture incrementally in constant memory and SourceFromTrace adapts an
// in-memory trace. Both implement BatchSource, the batch-pull fast path:
// observations flow through the pipeline as columnar Batch blocks
// (struct-of-arrays delay/time columns plus a loss bitmap) and each
// window is identified from a zero-copy view of a ring buffer. The
// one-shot contract is preserved exactly: a single window spanning a
// whole trace reproduces Identify bit for bit.
//
// # Monitoring service
//
// NewMonitor turns the streaming pipeline into a multi-path service: a
// Monitor manages many concurrent per-path sessions, each a bounded
// ingestion queue feeding the windowed pipeline, with every session's
// window identifications multiplexed onto one shared worker pool. Sessions
// are driven programmatically (Open / Offer / Subscribe / Drain) or over
// the stdlib-only HTTP API the Monitor's Handler serves: JSON/CSV
// observation ingestion with 429 backpressure, per-window results, a
// server-sent-events feed of DCL transitions, expvar-style metrics, and
// graceful drain that flushes each session's final partial window:
//
//	mon := dominantlink.NewMonitor(dominantlink.MonitorConfig{})
//	go http.ListenAndServe(":8844", mon.Handler())
//	...
//	mon.Close(ctx) // drain every session under ctx's deadline
//
// cmd/dclserved wraps the same service core into a standalone daemon, and
// MonitorClient is the agent-side counterpart: a retrying client whose
// Ingest honors the 429 + Retry-After backpressure contract, resuming
// from the server-reported accepted offset.
//
// A monitor's results are memory-only by default; attaching a durable
// result store (MonitorConfig.Store / StoreDir, OpenResultStore, the
// dclserved -store-dir flag) appends every window result and DCL
// transition to a per-path segmented, CRC-checked write-ahead log —
// results survive crashes byte-identically, a re-created path resumes
// its window numbering, and result offsets older than the in-memory
// ring are served from disk. cmd/dclstore inspects a store offline.
//
// # Overload behavior
//
// The monitor is designed to degrade explicitly, never silently. Three
// admission layers compose (all off by default):
//
//   - Rate limits (MonitorConfig.SessionRate / GlobalRate): token buckets
//     that refuse observations at the front door; refusals surface as
//     *RateLimitedError (HTTP 429 with Retry-After) carrying the retry
//     delay.
//   - Shed policies (MonitorConfig.Shed): what a full session queue does
//     with overflow — ShedReject bounces it back to the client (429;
//     nothing accepted is lost), ShedDropNewest discards the overflow,
//     ShedDropOldest evicts the oldest queued observations so the queue
//     always holds the freshest data.
//   - The circuit breaker (MonitorConfig.Breaker) plus the per-window
//     deadline (WindowConfig.Deadline): when EM latency turns
//     pathological, windows time out with ErrWindowDeadline instead of
//     wedging the pipeline, and the breaker sheds whole windows with
//     explicit Shed results (ErrWindowShed) until a half-open probe
//     proves the engine healthy again.
//
// Accounting stays closed under all of it: every accepted observation is
// attributed to exactly one window result or one explicit eviction, and
// shed, deadlined and dropped work is always visible — in window results,
// session status and the /metrics counters — never a silent gap. The
// internal/faultinject package provides the chaos harness (source drops,
// stalls, injected EM latency and failures) that soaks these guarantees
// under the race detector in CI.
//
// # Observability
//
// Where /metrics counts, the observability layer explains: setting
// MonitorConfig.Logger (built with NewLogger / ParseLogLevel; the
// dclserved -log-level and -log-format flags) threads a structured
// log/slog logger through the monitor. Every window then carries a
// lifecycle trace (WindowTrace) — span timestamps from the arrival of
// the data, through the cut, the stationarity gate and the EM fit, to
// the durable append — emitted as one log line per window. Routine
// windows are sampled deterministically (MonitorConfig.TraceSample, the
// -trace-sample flag); shed, deadline-expired and errored windows are
// always logged, as are DCL transitions, breaker state changes,
// rate-limit rejections, store recoveries and session lifecycle events.
// The slowest recent window traces are served at GET /debug/traces, and
// every HTTP request is access-logged with an X-Request-Id the response
// echoes. With Logger nil the whole layer is off and adds zero
// allocations to the window path. docs/OPERATIONS.md is the operator's
// runbook: failure signature -> log events to grep -> flag to turn.
//
// The cmd/ directory holds the executables (dclsim, dclidentify,
// dcltrace, dclserved, dclstore, dclbench, docscheck, experiments) and
// examples/ holds runnable walkthroughs; DESIGN.md and EXPERIMENTS.md
// document the architecture, the reproduction of every table and figure
// in the paper's evaluation, and the performance benchmark matrix.
package dominantlink

import (
	"context"

	"dominantlink/internal/clocksync"
	"dominantlink/internal/core"
	"dominantlink/internal/trace"
)

// Re-exported measurement types.
type (
	// Trace is a probe observation sequence (one-way delays and losses).
	Trace = trace.Trace
	// Observation is a single periodic probe outcome.
	Observation = trace.Observation
)

// Re-exported identification pipeline types.
type (
	// IdentifyConfig configures the pipeline; its zero value reproduces
	// the paper's defaults (MMHD, M=5, N=2, x=y=0.06).
	IdentifyConfig = core.IdentifyConfig
	// Identification is the pipeline outcome: inferred virtual-delay
	// distribution, SDCL/WDCL verdicts and the max-queuing-delay bound.
	Identification = core.Identification
	// ModelKind selects MMHD (default) or HMM.
	ModelKind = core.ModelKind
	// ClockLine is an estimated receiver clock error (offset + skew).
	ClockLine = clocksync.Line
)

// Model kinds.
const (
	MMHD = core.MMHD
	HMM  = core.HMM
)

// Sentinel errors of the pipeline; match with errors.Is.
var (
	// ErrEmptyTrace reports a trace without observations.
	ErrEmptyTrace = core.ErrEmptyTrace
	// ErrNoLosses reports a trace without a single lost probe, on which
	// the dominant-congested-link question is undefined (§III-A).
	ErrNoLosses = core.ErrNoLosses
	// ErrNonFinite reports a trace with a NaN or ±Inf delivered delay, or
	// EM restarts that all fitted a non-finite log-likelihood.
	ErrNonFinite = core.ErrNonFinite
	// ErrUnknownModel reports a ModelKind other than MMHD or HMM.
	ErrUnknownModel = core.ErrUnknownModel
)

// DefaultConfig returns the paper's default IdentifyConfig with every
// field materialized — the explicit form of the zero value, for callers
// that need to set a field to a literal zero afterwards (see the
// configuration contract in the package documentation).
func DefaultConfig() IdentifyConfig { return core.DefaultConfig() }

// Identify runs the full model-based identification of the paper on a
// probe trace: discretize delays, fit the model by EM treating losses as
// missing delay observations, extract P(V=m | loss), and apply the
// SDCL/WDCL hypothesis tests.
func Identify(tr *Trace, cfg IdentifyConfig) (*Identification, error) {
	return core.Identify(tr, cfg)
}

// IdentifyContext is Identify with cancellation: a canceled ctx stops the
// EM restart loop at the next restart boundary with ctx.Err().
func IdentifyContext(ctx context.Context, tr *Trace, cfg IdentifyConfig) (*Identification, error) {
	return core.IdentifyContext(ctx, tr, cfg)
}

// Batch identification types.
type (
	// Engine identifies many traces concurrently on a bounded worker
	// pool; see NewEngine.
	Engine = core.Engine
	// Job is one unit of Engine.IdentifyJobs work: a trace plus its
	// configuration.
	Job = core.Job
	// BatchResult is the per-trace outcome of a batch: exactly one of ID
	// and Err is set, and Index is the job's position in the input.
	BatchResult = core.BatchResult
)

// NewEngine returns an identification engine with the given worker-pool
// size; workers <= 0 means GOMAXPROCS.
func NewEngine(workers int) *Engine { return core.NewEngine(workers) }

// IdentifyBatch identifies every trace of a batch concurrently on a
// GOMAXPROCS-sized worker pool, with per-trace error isolation: one bad
// trace (say a segment with no losses) yields an error in its slot while
// the rest of the batch proceeds. Results are in input order. A canceled
// ctx stops the batch promptly; unfinished jobs report ctx's error.
func IdentifyBatch(ctx context.Context, traces []*Trace, cfg IdentifyConfig) []BatchResult {
	return core.IdentifyBatch(ctx, traces, cfg)
}

// CorrectClock removes receiver clock skew from one-way delays measured
// between unsynchronized hosts. sendTimes and delays are parallel slices
// of the delivered probes; the returned slice holds the corrected delays.
func CorrectClock(sendTimes, delays []float64) ([]float64, ClockLine, error) {
	return clocksync.Correct(sendTimes, delays)
}

// Stationarity utilities: the identification assumes the delay/loss
// processes are stationary over the probing window, and the paper carves
// stationary segments out of longer captures before identifying.
type (
	// StationarityConfig tunes CheckStationarity (zero value: 10 blocks).
	StationarityConfig = core.StationarityConfig
	// StationarityReport summarizes per-block loss/delay behaviour.
	StationarityReport = core.StationarityReport
)

// CheckStationarity splits the trace into blocks and flags loss-rate or
// delay-level regime changes.
func CheckStationarity(tr *Trace, cfg StationarityConfig) StationarityReport {
	return core.StationarityCheck(tr, cfg)
}

// LongestStationarySegment returns the [from, to) observation range of
// the longest stationary run of blocks, for carving a usable probing
// sequence out of a longer capture.
func LongestStationarySegment(tr *Trace, cfg StationarityConfig) (from, to int) {
	return core.LongestStationarySegment(tr, cfg)
}
