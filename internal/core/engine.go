package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dominantlink/internal/trace"
)

// Engine identifies many traces (or stationary segments) concurrently on a
// bounded worker pool. It exists for the batch shape every experiment
// driver has: N independent model fits over N path segments, which is
// embarrassingly parallel. An Engine is stateless between calls, safe for
// concurrent use, and free to construct — the worker pool is spun up per
// batch, while the expensive per-worker state (EM scratch buffers) lives
// inside each Identify call.
type Engine struct {
	workers int
	// shared, when non-nil, is an engine-wide slot pool bounding in-flight
	// window identifications across every Windower stream attached to this
	// engine (see NewSharedEngine). A nil shared keeps the original
	// behaviour: each stream gets its own private pool of `workers` slots.
	shared *slotPool
	// hook, when non-nil, runs at the start of every identification; see
	// SetIdentifyHook.
	hook func(ctx context.Context) error
	// fit, when non-nil, replaces fitRestart for every EM restart the
	// engine runs: the test seam that pins restart scheduling.
	fit fitFunc
}

// NewEngine returns an engine with the given worker-pool size; workers <= 0
// means GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// NewSharedEngine returns an engine whose identification slots are shared
// by every Windower stream running on it: however many streams are
// attached, at most `workers` window identifications are in flight at
// once, and a window's EM restarts borrow the slots no window holds (see
// runRestarts), so `workers` is the number of cores of EM across all
// streams. This is the multiplexing primitive of the monitoring service,
// where hundreds of per-path sessions feed one pool — without sharing,
// each stream would spin up its own `workers` goroutines. Batch calls
// (IdentifyJobs) are unaffected; they bound their own pool.
func NewSharedEngine(workers int) *Engine {
	e := NewEngine(workers)
	e.shared = newSlotPool(e.workers, 0)
	return e
}

// Workers reports the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// SetIdentifyHook installs fn at the front of every identification the
// engine performs — batch jobs and streamed windows alike. A non-nil error
// from fn fails that identification with the error; a panic inside fn is
// recovered into an error exactly like a pipeline panic. The hook is the
// fault-injection and instrumentation seam (injected EM latency, forced
// failures, chaos panics): install it before the engine serves traffic —
// installation is not synchronized with in-flight identifications.
func (e *Engine) SetIdentifyHook(fn func(ctx context.Context) error) { e.hook = fn }

// streamPool returns the slot pool a Windower stream bounds its in-flight
// identifications with: the engine-wide pool on a shared engine, else a
// fresh per-stream one.
func (e *Engine) streamPool() *slotPool {
	if e.shared != nil {
		return e.shared
	}
	return newSlotPool(e.workers, 0)
}

// slotPool is a pool of identification slots. A window, a batch job
// worker or a lone identification holds one slot while it runs, and its
// EM restarts borrow the slots nobody holds (runRestarts). acquire queues
// FIFO behind earlier waiters (a blocked channel send); tryAcquire never
// takes a slot while anyone waits, and a borrower hands its slot back at
// its next restart boundary once waiters() is positive, so a waiting
// window is never kept behind more than one restart per borrowed slot.
type slotPool struct {
	slots   chan struct{} // one element per held slot
	waiting atomic.Int32
}

// newSlotPool returns a pool of size slots, held of them already taken by
// the caller.
func newSlotPool(size, held int) *slotPool {
	p := &slotPool{slots: make(chan struct{}, size)}
	for range held {
		p.slots <- struct{}{}
	}
	return p
}

// acquire takes a slot, blocking behind earlier waiters until one is free
// or ctx is done; it reports whether it got one.
func (p *slotPool) acquire(ctx context.Context) bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
	}
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// tryAcquire takes a free slot without blocking, unless someone waits.
func (p *slotPool) tryAcquire() bool {
	if p.waiters() > 0 {
		return false
	}
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a held slot.
func (p *slotPool) release() { <-p.slots }

// waiters reports how many acquire calls are blocked.
func (p *slotPool) waiters() int { return int(p.waiting.Load()) }

// Job is one unit of batch work: a trace plus the configuration to
// identify it with.
type Job struct {
	Trace  *trace.Trace
	Config IdentifyConfig
}

// BatchResult is the outcome of one job of a batch. Exactly one of ID and
// Err is non-nil. Index is the job's position in the input slice (results
// are returned in input order, so Index == position in the result slice;
// it is carried so results can be filtered without losing provenance).
type BatchResult struct {
	Index int
	ID    *Identification
	Err   error
}

// IdentifyBatch identifies every trace of a batch with the same
// configuration. Results are in input order. Errors are isolated per
// trace: a trace that cannot be identified (say, a segment with no losses
// — errors.Is(res.Err, ErrNoLosses)) yields an error result while the
// rest of the batch proceeds. A canceled ctx stops the batch promptly;
// jobs not yet finished report ctx's error.
func (e *Engine) IdentifyBatch(ctx context.Context, traces []*trace.Trace, cfg IdentifyConfig) []BatchResult {
	jobs := make([]Job, len(traces))
	for i, tr := range traces {
		jobs[i] = Job{Trace: tr, Config: cfg}
	}
	return e.IdentifyJobs(ctx, jobs)
}

// IdentifyJobs is IdentifyBatch with per-job configurations, for batches
// that sweep a parameter (model kind, hidden-state count, symbols) over
// one or many traces.
//
// Each job runs through the same pipeline and engine step as a streamed
// window — same restart seeds, same best-fit reduction as a lone
// IdentifyContext call — so batching never changes results, only
// wall-clock. The batch has a pool of Workers() slots; each job worker
// holds one while it runs jobs, and a job's EM restarts borrow the slots
// of workers that have run out of jobs (runRestarts), so a batch's last
// jobs still use every core.
func (e *Engine) IdentifyJobs(ctx context.Context, jobs []Job) []BatchResult {
	results := make([]BatchResult, len(jobs))
	workers := max(1, min(e.workers, len(jobs)))
	pool := newSlotPool(e.workers, workers)
	var next atomic.Int64
	// work is the one job worker loop; it releases the worker's slot once
	// the jobs run out. Once ctx is canceled, every job not yet claimed
	// reports ctx's error. A nil Trace is an empty one.
	work := func() {
		defer pool.release()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if err := ctx.Err(); err != nil {
				results[i] = BatchResult{Index: i, Err: err}
				continue
			}
			var obs []trace.Observation
			if tr := jobs[i].Trace; tr != nil {
				obs = tr.Observations
			}
			b, sc := gatherRows(obs)
			id, err := e.identify(ctx, b, jobs[i].Config, pool, sc)
			pipelinePool.Put(sc)
			results[i] = BatchResult{Index: i, ID: id, Err: err}
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return results
}

// identify is the engine's one identification step, shared by batch jobs
// and streamed windows: it runs the hook, then the pipeline on window b
// (gathered into sc) with its restarts borrowing from pool, where the
// caller holds a slot, and turns a panic in either into an error so one
// malformed input cannot sink the rest of a batch or a stream (a panic in
// a restart is contained by the restart worker loop).
func (e *Engine) identify(ctx context.Context, b *trace.Batch, cfg IdentifyConfig, pool *slotPool, sc *pipelineScratch) (id *Identification, err error) {
	defer func() {
		if r := recover(); r != nil {
			id, err = nil, fmt.Errorf("core: identification panicked: %v", r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.hook != nil {
		if err := e.hook(ctx); err != nil {
			return nil, err
		}
	}
	return identifyBatchContext(ctx, b, cfg, pool, e.fit, sc)
}

// IdentifyBatch identifies traces concurrently on a GOMAXPROCS-sized
// default engine. See Engine.IdentifyBatch.
func IdentifyBatch(ctx context.Context, traces []*trace.Trace, cfg IdentifyConfig) []BatchResult {
	return NewEngine(0).IdentifyBatch(ctx, traces, cfg)
}
