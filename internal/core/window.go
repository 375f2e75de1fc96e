package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dominantlink/internal/obs"
	"dominantlink/internal/trace"
)

// The streaming pipeline: an ObservationSource is cut into sliding
// windows, each window passes the stationarity check as an admission gate
// (the per-window analogue of the paper carving a stationary 20-minute
// sequence out of each 1-hour capture, §VII), and admitted windows are
// identified concurrently on the Engine's worker pool. Results come out
// strictly in window order, annotated with the DCL transition relative to
// the previous decided window, so a long-running monitor can alert on
// congestion onset and clearance instead of re-running one-shot analyses.

// Transition classifies the change in DCL status between consecutive
// decided windows of a stream.
type Transition int

const (
	// TransitionNone: same verdict as the previous decided window.
	TransitionNone Transition = iota
	// TransitionOnset: a dominant congested link appeared (including in
	// the first decided window of the stream).
	TransitionOnset
	// TransitionCleared: the previously reported DCL is gone.
	TransitionCleared
	// TransitionBound: still a DCL, but its queuing-delay bound moved by
	// more than WindowConfig.BoundDelta (relative).
	TransitionBound
)

func (t Transition) String() string {
	switch t {
	case TransitionOnset:
		return "dcl-onset"
	case TransitionCleared:
		return "dcl-cleared"
	case TransitionBound:
		return "bound-changed"
	default:
		return "none"
	}
}

// WindowConfig shapes how a Windower cuts an observation stream. Exactly
// one of Size (observation count) and Duration (seconds of send time)
// must be positive; Size wins when both are set. The zero stride makes
// windows tumble (stride = window length); a smaller stride slides them.
type WindowConfig struct {
	Size     int     // observations per window (count-based)
	Duration float64 // seconds per window (duration-based, when Size == 0)

	Stride         int     // observations between window starts (default Size)
	StrideDuration float64 // seconds between starts (default Duration)

	// Gate configures the per-window stationarity admission check; its
	// zero value is the default StationarityCheck configuration.
	// DisableGate identifies every window regardless of the check (the
	// report is still attached to the result).
	Gate        StationarityConfig
	DisableGate bool

	// BoundDelta is the relative change of the queuing-delay bound between
	// consecutive DCL windows that is reported as TransitionBound
	// (default 0.25).
	BoundDelta float64

	// FlushPartial emits the trailing incomplete window when the source
	// ends with observations buffered past the last complete window. The
	// flushed result has Partial set and is otherwise a normal window:
	// gated, identified, and counted in the transition state. It is meant
	// for session-oriented consumers (the monitoring daemon) that close a
	// stream deliberately and want a final verdict over the tail instead
	// of silently dropping it.
	FlushPartial bool

	// Deadline bounds one window's identification wall-clock. When the EM
	// fit of a window has not finished within Deadline, it is interrupted
	// at the next EM iteration and the result carries ErrWindowDeadline
	// (match with errors.Is) instead of an Identification — the stream
	// moves on to the next window, so a pathological trace cannot stall
	// the session behind it. Zero means no deadline.
	Deadline time.Duration

	// CollectTrace attaches a lifecycle trace (obs.WindowTrace) to every
	// WindowResult: span timestamps from the arrival of the observation
	// that completed the window, through the cut and the stationarity
	// gate, to the EM fit. Off by default — the steady-state window path
	// allocates nothing extra when unset. The monitoring service turns it
	// on whenever a logger is configured and stamps the remaining fields
	// (path id, absolute index, durable-append time).
	CollectTrace bool

	// Admit, when non-nil, is consulted for each window after the
	// stationarity gate and before identification. A non-nil return sheds
	// the window: no identification runs and the result has Shed set with
	// an error wrapping both ErrWindowShed and Admit's error. This is the
	// load-shedding seam of the serving layer (the monitor's circuit
	// breaker plugs in here); the callback must be fast and safe for
	// concurrent use — it runs on the identification workers.
	Admit func(res *WindowResult) error
}

func (c *WindowConfig) defaults() error {
	if c.Size <= 0 && c.Duration <= 0 {
		return errors.New("core: window config needs a positive Size or Duration")
	}
	if c.Size > 0 {
		c.Duration = 0
		if c.Stride <= 0 {
			c.Stride = c.Size
		}
	} else if c.StrideDuration <= 0 {
		c.StrideDuration = c.Duration
	}
	if c.BoundDelta <= 0 {
		c.BoundDelta = 0.25
	}
	return nil
}

// Validate reports whether the config can drive a stream — exactly the
// check Stream performs up front — without mutating c. Session-oriented
// callers (the monitoring service) use it to reject a bad config at
// session creation instead of surfacing a dead stream later.
func (c WindowConfig) Validate() error { return (&c).defaults() }

// WindowResult is the outcome of one window of a stream. Start/End are
// absolute observation indexes ([Start, End)) and StartTime/EndTime the
// send times of the window's first and last observation. Exactly one of
// ID and Err is set when the window was admitted; neither when the gate
// rejected it.
type WindowResult struct {
	Index      int
	Start, End int
	StartTime  float64
	EndTime    float64

	// Partial marks a trailing incomplete window flushed at end of stream
	// (WindowConfig.FlushPartial).
	Partial bool

	Stationarity StationarityReport
	Admitted     bool

	// Shed marks a window refused by admission control
	// (WindowConfig.Admit): the window passed the stationarity gate but
	// the serving layer chose not to spend an identification on it. Err
	// wraps ErrWindowShed plus the admission error. Shed windows are not
	// Decided and never advance the transition state.
	Shed bool

	ID  *Identification
	Err error

	// Elapsed is the wall-clock time the admitted window spent in
	// identification (all EM restarts); zero for gated windows. Monitoring
	// consumers feed it into their latency histograms.
	Elapsed time.Duration

	Transition Transition

	// Trace is the window's lifecycle trace, attached only when
	// WindowConfig.CollectTrace is set (nil otherwise). The windower fills
	// the span timestamps and outcome; session-oriented consumers stamp
	// the path id, absolute window index and durable-append time before
	// handing it to their observability layer.
	Trace *obs.WindowTrace
}

// Probes returns the number of observations in the window.
func (r *WindowResult) Probes() int { return r.End - r.Start }

// HasDCL reports whether this window's identification accepted either
// hypothesis test. A window with no losses never has a DCL.
func (r *WindowResult) HasDCL() bool { return r.ID != nil && r.ID.HasDCL() }

// Decided reports whether the window produced a verdict: it was admitted
// and either identified or found loss-free (a loss-free window is a
// definite "no DCL", not a failure). Undecided windows do not advance the
// transition state.
func (r *WindowResult) Decided() bool {
	return r.Admitted && (r.Err == nil || errors.Is(r.Err, ErrNoLosses))
}

// Windower cuts an observation stream into sliding windows and identifies
// them on an Engine. A Windower is stateless between Stream calls and safe
// for concurrent use.
type Windower struct {
	engine *Engine
	cfg    WindowConfig
}

// NewWindower returns a windower feeding admitted windows to engine.
func NewWindower(engine *Engine, cfg WindowConfig) *Windower {
	return &Windower{engine: engine, cfg: cfg}
}

// Stream consumes src and emits one WindowResult per complete window, in
// window order, on the returned channel. Windows are identified
// concurrently (up to the engine's worker count in flight) but never
// reordered; each window is identified exactly as a one-shot
// IdentifyContext call on its observations would be, so a single window
// spanning the whole trace reproduces Identify byte for byte. A trailing
// partial window is not emitted: a window is only decided once complete.
// A source failure surfaces as a final result carrying the error; a
// panicking source is contained the same way, as a final result wrapping
// ErrPipelinePanic — Stream never lets a source or window-path panic
// escape to the caller's process, so a supervising layer can treat "the
// channel closed with a terminal error" as the one restartable failure
// shape. The channel closes when the source is exhausted or ctx is
// canceled; the caller must consume it (or cancel ctx) to avoid stalling
// the pipeline.
func (w *Windower) Stream(ctx context.Context, src trace.ObservationSource, cfg IdentifyConfig) (<-chan WindowResult, error) {
	wcfg := w.cfg
	if err := wcfg.defaults(); err != nil {
		return nil, err
	}
	workers := w.engine.Workers()
	pool := w.engine.streamPool()
	out := make(chan WindowResult, workers)
	// order carries one future per window so the emitter can restore
	// window order whatever the identification finishing order; its bound
	// (with the pool's) also caps how far the producer runs ahead of a
	// slow consumer.
	order := make(chan chan WindowResult, 2*workers)

	go func() { // producer: cut windows, dispatch identifications
		defer close(order)
		w.cutWindows(ctx, src, wcfg, cfg, order, pool)
	}()

	go func() { // emitter: restore order, attach transitions
		defer close(out)
		st := transitionState{delta: wcfg.BoundDelta}
		for slot := range order {
			res := <-slot
			st.apply(&res)
			if res.Trace != nil && res.Transition != TransitionNone {
				res.Trace.Transition = res.Transition.String()
			}
			select {
			case out <- res:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// The data plane of the stream is a ring of refcounted columnar chunks.
// The reader goroutine pulls whole batches from the source (BatchSource
// fast path; legacy sources go through the one-observation adapter) into
// pooled transfer batches; the producer appends them to the current ring
// chunk with three column copies and hands every window a zero-copy view
// (trace.Batch.Slice) of that chunk. Views pin the chunk through a
// reference count: the producer holds one reference while it appends, each
// in-flight window holds one, and the last release recycles the chunk into
// a pool. Copies happen in exactly one place — when sliding windows
// (stride < size) leave a live tail in a mostly-consumed chunk, the tail
// migrates to a fresh chunk (amortized one stride of observations per
// window, strictly less than the old full-window copy). Oversized chunks
// are never pooled, so a long -follow session does not pin its peak-window
// memory forever.

const (
	// transferChunk bounds one reader batch: big enough to amortize the
	// channel operation, small enough that a live tail stays prompt.
	transferChunk = 1024
	// maxPooledChunk is the largest chunk capacity (in observations) the
	// recycler keeps; anything bigger is left to the GC.
	maxPooledChunk = 1 << 16
)

// ringChunk is one refcounted segment of a stream's ring buffer.
type ringChunk struct {
	batch *trace.Batch
	refs  atomic.Int32 // producer's hold + one per in-flight window view
}

var chunkPool = sync.Pool{New: func() any { return &ringChunk{batch: trace.NewBatch(0)} }}

// getChunk returns an empty chunk holding the producer's reference.
func getChunk() *ringChunk {
	c := chunkPool.Get().(*ringChunk)
	c.refs.Store(1)
	return c
}

// release drops one reference; the last release recycles the chunk. Reset
// is safe exactly here: zero references means no view can observe the
// wiped columns, and the releasing goroutine's atomic decrement orders its
// reads before the recycler's writes.
func (c *ringChunk) release() {
	if c.refs.Add(-1) == 0 && c.batch.Cap() <= maxPooledChunk {
		c.batch.Reset()
		chunkPool.Put(c)
	}
}

var transferPool = sync.Pool{New: func() any { return trace.NewBatch(transferChunk) }}

// batchRead is one reader batch, shuttled from the reader goroutine to the
// producer. Exactly one of b and err is set (NextBatch defers a terminal
// error hit after a partial batch to its next call).
type batchRead struct {
	b   *trace.Batch
	err error
}

// readBatches pumps src.NextBatch results into the returned channel so the
// producer can select against ctx. If the source stalls forever (a tail
// that never grows, a dead probe socket), cancellation still tears the
// stream down promptly; the reader goroutine itself stays parked in
// NextBatch until the source yields or fails once more, which is the best
// a blocking pull interface allows — sources that can unblock on close
// (e.g. the monitor's session queues) release it immediately. The producer
// returns each received batch to the transfer pool once appended.
func readBatches(ctx context.Context, src trace.BatchSource) <-chan batchRead {
	reads := make(chan batchRead)
	// next pulls one batch with panic containment: a panicking source
	// becomes a terminal ErrPipelinePanic read instead of killing the
	// process, so a supervising layer (the monitor's session supervisor)
	// can observe the failure and restart the stream.
	next := func(b *trace.Batch) (n int, err error) {
		defer func() {
			if r := recover(); r != nil {
				n, err = 0, fmt.Errorf("%w: observation source panicked: %v", ErrPipelinePanic, r)
			}
		}()
		return src.NextBatch(b, transferChunk)
	}
	go func() {
		for {
			b := transferPool.Get().(*trace.Batch)
			b.Reset()
			n, err := next(b)
			if n == 0 {
				if errors.Is(err, ErrPipelinePanic) {
					// The panic may have left b mid-append; let the GC take
					// it rather than recycling an inconsistent buffer.
				} else {
					transferPool.Put(b)
				}
				if err == nil {
					continue // defensive: the contract promises n>0 or err
				}
				b = nil
			}
			select {
			case reads <- batchRead{b, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return reads
}

// cutWindows reads src to exhaustion, cutting complete windows out of the
// chunk ring and dispatching each as a view to a worker holding a slot of
// pool that identifies it into its order slot.
func (w *Windower) cutWindows(ctx context.Context, src trace.ObservationSource, wcfg WindowConfig, cfg IdentifyConfig, order chan chan WindowResult, pool *slotPool) {
	var (
		chunk     = getChunk()
		chunkBase int // absolute index of chunk element 0
		liveStart int // absolute index of the oldest retained observation
		winStart  int // count mode: absolute index of the next window start
		t0        float64
		t0set     bool
		index     int
		arriveAt  time.Time // tracing: when the latest batch was appended
	)
	defer func() { chunk.release() }()
	total := func() int { return chunkBase + chunk.batch.Len() }

	emit := func(start, end int, partial bool) bool {
		// Acquire the worker slot before enqueueing the order slot: every
		// slot the emitter sees is then guaranteed a worker to fill it, so
		// an abort here can never strand the emitter on an empty future.
		if !pool.acquire(ctx) {
			return false
		}
		slot := make(chan WindowResult, 1)
		select {
		case order <- slot:
		case <-ctx.Done():
			pool.release() // the unused worker slot (shared across streams)
			return false
		}
		view := chunk.batch.Slice(start-chunkBase, end-chunkBase)
		chunk.refs.Add(1)
		ch := chunk
		res := WindowResult{Index: index, Start: start, End: end, Partial: partial,
			StartTime: view.SendTime(0), EndTime: view.SendTime(view.Len() - 1)}
		if wcfg.CollectTrace {
			// EnqueuedAt is when the batch holding this window's last
			// observation arrived; the gap to CutAt is producer backlog.
			res.Trace = &obs.WindowTrace{
				Window: index, Probes: end - start, Partial: partial,
				EnqueuedAt: arriveAt, CutAt: time.Now(),
			}
		}
		index++
		go func() {
			defer pool.release()
			defer ch.release()
			// Contain panics on the window path outside the engine (the
			// gate, the admission callback): the window fails with
			// ErrPipelinePanic, the stream lives on.
			defer func() {
				if r := recover(); r != nil {
					res.Admitted, res.Shed, res.ID = false, false, nil
					res.Err = fmt.Errorf("%w: window %d: %v", ErrPipelinePanic, res.Index, r)
					slot <- res
				}
			}()
			slot <- w.identifyWindow(ctx, res, view, cfg, pool)
		}()
		return true
	}
	// advance retires consumed observations: the logical buffer now starts
	// at absolute index s. A fully-consumed chunk is released for reuse; a
	// chunk whose dead prefix has grown to the live tail's size migrates
	// the tail to a fresh chunk, which both bounds the ring at O(window)
	// and right-sizes the backing arrays (the old chunk is recycled or
	// GC'd, never pinned at peak size).
	advance := func(s int) {
		if t := total(); s > t {
			s = t // stride > size: the drop point is past the data read so far
		}
		if s > liveStart {
			liveStart = s
		}
		dead := liveStart - chunkBase
		if dead == 0 {
			return
		}
		live := chunk.batch.Len() - dead
		if live == 0 {
			chunk.release()
			chunk = getChunk()
			chunkBase = liveStart
			return
		}
		if dead >= live {
			next := getChunk()
			next.batch.AppendBatch(chunk.batch.Slice(dead, chunk.batch.Len()))
			chunk.release()
			chunk = next
			chunkBase = liveStart
		}
	}
	reads := readBatches(ctx, trace.AsBatchSource(src))
	for {
		select {
		case r := <-reads:
			if r.err == io.EOF {
				// Flush the trailing partial window, if asked to: the tail
				// runs from the pending window start (count mode) or the
				// current window origin (duration mode) to the end.
				if wcfg.FlushPartial {
					start := liveStart
					if wcfg.Size > 0 {
						start = winStart
					}
					if start < total() {
						emit(start, total(), true)
					}
				}
				return
			}
			if r.err != nil {
				slot := make(chan WindowResult, 1)
				slot <- WindowResult{Index: index, Start: total(), End: total(),
					Err: fmt.Errorf("core: observation source: %w", r.err)}
				select {
				case order <- slot:
				case <-ctx.Done():
				}
				return
			}
			chunk.batch.AppendBatch(r.b)
			transferPool.Put(r.b)
			if wcfg.CollectTrace {
				arriveAt = time.Now()
			}
		case <-ctx.Done():
			return
		}
		if wcfg.Size > 0 {
			for total() >= winStart+wcfg.Size {
				if !emit(winStart, winStart+wcfg.Size, false) {
					return
				}
				winStart += wcfg.Stride
				advance(winStart)
			}
			continue
		}
		if !t0set && chunk.batch.Len() > 0 {
			t0, t0set = chunk.batch.SendTime(0), true
		}
		// Window boundaries depend only on send times, so cutting once per
		// appended batch emits the same windows the per-observation loop
		// did.
		for t0set && chunk.batch.Len() > 0 &&
			chunk.batch.SendTime(chunk.batch.Len()-1) >= t0+wcfg.Duration {
			i := liveStart - chunkBase
			cut := 0
			for i+cut < chunk.batch.Len() && chunk.batch.SendTime(i+cut) < t0+wcfg.Duration {
				cut++
			}
			// An empty window (a probe gap longer than the window) yields
			// no result; the stream just moves on.
			if cut > 0 {
				if !emit(liveStart, liveStart+cut, false) {
					return
				}
			}
			t0 += wcfg.StrideDuration
			n := 0
			for i+n < chunk.batch.Len() && chunk.batch.SendTime(i+n) < t0 {
				n++
			}
			advance(liveStart + n)
		}
	}
}

// identifyWindow gates one window view on stationarity, consults admission
// control, and identifies admitted windows through the engine (sharing its
// panic isolation) under the configured per-window deadline, the EM
// restarts borrowing the slots of pool that no window holds. The window's
// delays are gathered and sorted once into a pooled scratch shared by the
// gate and the discretization.
func (w *Windower) identifyWindow(ctx context.Context, res WindowResult, b *trace.Batch, cfg IdentifyConfig, pool *slotPool) WindowResult {
	sc := pipelinePool.Get().(*pipelineScratch)
	defer pipelinePool.Put(sc)
	sc.gather(b)
	res.Stationarity = stationarityCheckBatch(b, w.cfg.Gate, sc)
	res.Admitted = w.cfg.DisableGate || res.Stationarity.Stationary
	if res.Trace != nil {
		res.Trace.GateAt = time.Now()
	}
	if !res.Admitted {
		res.finishTrace()
		return res
	}
	if w.cfg.Admit != nil {
		if err := w.cfg.Admit(&res); err != nil {
			res.Admitted = false
			res.Shed = true
			res.Err = fmt.Errorf("%w: %w", ErrWindowShed, err)
			res.finishTrace()
			return res
		}
	}
	ictx := ctx
	if w.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, w.cfg.Deadline)
		defer cancel()
	}
	start := time.Now()
	if res.Trace != nil {
		res.Trace.FitStartAt = start
	}
	res.ID, res.Err = w.engine.identify(ictx, b, cfg, pool, sc)
	res.Elapsed = time.Since(start)
	// A deadline expiry of THIS window (and not a cancellation of the whole
	// stream) surfaces as the typed window-deadline error.
	if res.Err != nil && ctx.Err() == nil && errors.Is(res.Err, context.DeadlineExceeded) {
		res.Err = fmt.Errorf("%w after %v (deadline %v)", ErrWindowDeadline,
			res.Elapsed.Round(time.Millisecond), w.cfg.Deadline)
	}
	if res.Trace != nil {
		res.Trace.FitDoneAt = start.Add(res.Elapsed)
		if res.Trace.Restarts = cfg.Restarts; res.Trace.Restarts <= 0 {
			res.Trace.Restarts = DefaultConfig().Restarts
		}
		if res.ID != nil {
			res.Trace.Iterations = res.ID.EMIterations
		}
	}
	res.finishTrace()
	return res
}

// finishTrace classifies the window's final outcome onto its trace, if one
// is attached. The loss-free verdict counts as done: it is a decision, not
// a failure.
func (r *WindowResult) finishTrace() {
	t := r.Trace
	if t == nil {
		return
	}
	switch {
	case r.Shed:
		t.Outcome = obs.OutcomeShed
	case !r.Admitted:
		t.Outcome = obs.OutcomeRejected
	case r.Err == nil || errors.Is(r.Err, ErrNoLosses):
		t.Outcome = obs.OutcomeDone
	case errors.Is(r.Err, ErrWindowDeadline):
		t.Outcome = obs.OutcomeDeadline
	default:
		t.Outcome = obs.OutcomeError
	}
	if r.Err != nil {
		t.Error = r.Err.Error()
	}
}

// transitionState tracks the last decided window's verdict to classify
// transitions; it is only touched by the emitter goroutine, in order.
type transitionState struct {
	delta   float64
	decided bool
	dcl     bool
	bound   float64
}

func (s *transitionState) apply(res *WindowResult) {
	if !res.Decided() {
		return
	}
	dcl := res.HasDCL()
	switch {
	case dcl && !s.dcl:
		res.Transition = TransitionOnset
	case !dcl && s.decided && s.dcl:
		res.Transition = TransitionCleared
	case dcl && s.dcl:
		if relChange(res.ID.BoundSeconds, s.bound) > s.delta {
			res.Transition = TransitionBound
		}
	}
	s.decided, s.dcl = true, dcl
	if dcl {
		s.bound = res.ID.BoundSeconds
	}
}

// relChange is |a-b| relative to the larger magnitude (0 when both are 0).
func relChange(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
