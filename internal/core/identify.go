package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dominantlink/internal/hmm"
	"dominantlink/internal/mmhd"
	"dominantlink/internal/stats"
	"dominantlink/internal/trace"
)

// ModelKind selects the inference model.
type ModelKind int

// Supported models.
const (
	// MMHD is the Markov model with a hidden dimension — the model the
	// paper recommends (accurate in every setting studied).
	MMHD ModelKind = iota
	// HMM is the classical hidden Markov model baseline, which can deviate
	// when delay correlation matters (Fig. 8).
	HMM
)

func (k ModelKind) String() string {
	switch k {
	case MMHD:
		return "mmhd"
	case HMM:
		return "hmm"
	default:
		return "unknown"
	}
}

// IdentifyConfig configures the end-to-end identification pipeline. The
// zero value reproduces the paper's defaults: MMHD with M=5 symbols, N=2
// hidden states, EM threshold 1e-3, WDCL parameters x=y=0.06.
type IdentifyConfig struct {
	Model        ModelKind
	Symbols      int     // M (default 5)
	HiddenStates int     // N (default 2)
	Threshold    float64 // EM convergence threshold (default 1e-3)
	MaxIter      int     // EM iteration cap (default 500)
	Seed         int64   // EM initialization seed

	X, Y float64 // WDCL parameters (defaults 0.06, 0.06)

	// PerSymbolLoss reverts MMHD to the paper's exact formulation, in which
	// the loss probability depends on the delay symbol only. The default
	// (false) uses per-state loss probabilities, which are strictly more
	// expressive and avoid the symbol-hijacking EM failure mode on traces
	// with regime-dependent loss (see EXPERIMENTS.md).
	PerSymbolLoss bool

	// Restarts is the number of random EM initializations; the fit with the
	// best log-likelihood wins (default 5).
	Restarts int

	// KnownPropagation fixes the propagation delay d_prop; 0 approximates
	// it with the minimum observed delay (§V-A).
	KnownPropagation float64

	// Tolerance is the numerical zero of the tests (default
	// DefaultTolerance).
	Tolerance float64

	// ExactX, ExactY and ExactTolerance mark the corresponding field as
	// explicitly set. The zero value of IdentifyConfig reproduces the
	// paper's defaults, which makes a literal X=0, Y=0 or Tolerance=0
	// indistinguishable from "unset"; setting the marker makes the
	// pipeline honor the explicit zero instead of substituting the
	// default. Y=0 with ExactY is the paper's strict WDCL delay
	// condition; Tolerance=0 with ExactTolerance makes the SDCL test
	// exact ("F(i) > 0" with no numerical slack).
	//
	// Deprecated: set the paired field through WithX, WithY and
	// WithTolerance instead, which keep the value and its marker in step.
	// The fields keep working indefinitely — With* compiles down to exactly
	// these assignments.
	ExactX, ExactY, ExactTolerance bool

	// Parallelism bounds the number of EM restarts fitted concurrently;
	// 1 forces the serial restart loop. 0 leaves it to the slot pool the
	// identification runs on (runRestarts): a lone identification has
	// GOMAXPROCS slots, a batch or a stream its engine's Workers(), and
	// the restarts borrow the slots no other job or window holds. A
	// positive Parallelism is also the pool size of a lone
	// identification. The selected fit is independent of Parallelism:
	// restarts derive their seeds from their index, and ties in
	// log-likelihood resolve to the lowest restart index, so the winner is
	// the same fit the serial loop picks.
	Parallelism int
}

// DefaultConfig returns the paper's defaults materialized into every
// field: MMHD with M=5 symbols, N=2 hidden states, EM threshold 1e-3
// capped at 500 iterations, 5 restarts, WDCL parameters x=y=0.06, and
// tolerance DefaultTolerance. It is the explicit form of the zero value —
// use it as a starting point when a field must then be set to a literal
// zero (together with the matching Exact* marker).
func DefaultConfig() IdentifyConfig {
	var c IdentifyConfig
	c.defaults()
	return c
}

func (c *IdentifyConfig) defaults() {
	if c.Symbols == 0 {
		c.Symbols = 5
	}
	if c.HiddenStates == 0 {
		c.HiddenStates = 2
	}
	if c.Threshold == 0 {
		c.Threshold = 1e-3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	if c.X == 0 && !c.ExactX {
		c.X = 0.06
	}
	if c.Y == 0 && !c.ExactY {
		c.Y = 0.06
	}
	if c.Tolerance == 0 && !c.ExactTolerance {
		c.Tolerance = DefaultTolerance
	}
	if c.Restarts == 0 {
		c.Restarts = 5
	}
}

// WithX returns a copy of the config with the WDCL loss parameter x set
// explicitly — including to 0 — so the value is never mistaken for "use
// the paper default". It is the supported form of the ExactX marker.
func (c IdentifyConfig) WithX(x float64) IdentifyConfig {
	c.X, c.ExactX = x, true
	return c
}

// WithY returns a copy of the config with the WDCL delay parameter y set
// explicitly. WithY(0) is the paper's strict WDCL delay condition.
func (c IdentifyConfig) WithY(y float64) IdentifyConfig {
	c.Y, c.ExactY = y, true
	return c
}

// WithTolerance returns a copy of the config with the numerical tolerance
// of the tests set explicitly. WithTolerance(0) makes the SDCL test exact:
// "F(i) > 0" with no numerical slack.
func (c IdentifyConfig) WithTolerance(tol float64) IdentifyConfig {
	c.Tolerance, c.ExactTolerance = tol, true
	return c
}

// Identification is the outcome of the pipeline on one trace.
type Identification struct {
	Config IdentifyConfig
	Disc   Discretization

	LossRate float64

	// VirtualPMF / VirtualCDF are the inferred distribution of the
	// discretized virtual queuing delay of lost probes, P(V=m | loss).
	VirtualPMF stats.PMF
	VirtualCDF stats.CDF

	SDCL SDCLResult
	WDCL WDCLResult

	// BoundSeconds is the §IV-B upper bound on the maximum queuing delay
	// of the dominant congested link, meaningful when SDCL or WDCL accepts.
	BoundSeconds float64

	// EM diagnostics.
	EMIterations int
	EMConverged  bool
	LogLik       float64

	// EMTime is the wall-clock time spent fitting the EM restarts (all
	// restarts, across however many workers ran them).
	EMTime time.Duration
}

// HasDCL reports whether either hypothesis test accepted.
func (id *Identification) HasDCL() bool { return id.SDCL.Accept || id.WDCL.Accept }

// Summary renders a one-line human-readable verdict. The queuing-delay
// bound is only meaningful when a test accepted, so it is omitted — and
// the test statistics are labeled as rejected — when neither did.
func (id *Identification) Summary() string {
	switch {
	case id.SDCL.Accept:
		return fmt.Sprintf("strongly dominant congested link; loss=%.2f%% i*=%d F(2i*)=%.3f bound=%.1fms",
			100*id.LossRate, id.WDCL.IStar, id.WDCL.FAt2I, 1e3*id.BoundSeconds)
	case id.WDCL.Accept:
		return fmt.Sprintf("weakly dominant congested link (x=%.2f y=%.2f); loss=%.2f%% i*=%d F(2i*)=%.3f bound=%.1fms",
			id.WDCL.X, id.WDCL.Y, 100*id.LossRate, id.WDCL.IStar, id.WDCL.FAt2I, 1e3*id.BoundSeconds)
	default:
		return fmt.Sprintf("no dominant congested link; loss=%.2f%% (tests rejected at i*=%d, F(2i*)=%.3f)",
			100*id.LossRate, id.WDCL.IStar, id.WDCL.FAt2I)
	}
}

// Identify runs the full model-based pipeline of §V on a probe trace.
func Identify(tr *trace.Trace, cfg IdentifyConfig) (*Identification, error) {
	return IdentifyContext(context.Background(), tr, cfg)
}

// IdentifyContext is Identify with cancellation: the EM restarts run on
// a pool of Parallelism slots (GOMAXPROCS when Parallelism is not
// positive), the caller's goroutine plus one borrowing helper per free
// slot (see runRestarts; each worker has its own reusable forward-backward
// scratch), and a canceled context stops the pipeline at the next restart
// boundary with ctx.Err(). For a fixed Seed the outcome is identical
// whatever the parallelism: restart r always runs from seed
// stats.RestartSeed(cfg.Seed, r), and restartSet.best breaks ties in
// favor of the lowest restart index. It runs the same columnar pipeline
// as a streamed window, on a batch converted from tr.
func IdentifyContext(ctx context.Context, tr *trace.Trace, cfg IdentifyConfig) (*Identification, error) {
	b, sc := gatherRows(tr.Observations)
	defer pipelinePool.Put(sc)
	slots := cfg.Parallelism
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return identifyBatchContext(ctx, b, cfg, newSlotPool(slots, 1), nil, sc)
}

// restartFit is the outcome of one EM restart.
type restartFit struct {
	pmf        stats.PMF
	iterations int
	converged  bool
	loglik     float64
	err        error
}

// restartSet holds every EM restart of one identification, indexed by
// restart.
type restartSet []restartFit

// best is the one restart reduction. The first error in restart order
// fails the identification; otherwise the highest log-likelihood wins, and
// the strict > keeps the lowest restart index on ties, so the winner does
// not depend on how the restarts were scheduled. A set without a PMF (the
// window has no losses) is ErrNoLosses; a set whose PMFs all came with a
// log-likelihood that cannot win (NaN, -Inf) is ErrNonFinite.
func (s restartSet) best() (restartFit, error) {
	win := restartFit{loglik: math.Inf(-1)}
	fitted := false
	for _, f := range s {
		if f.err != nil {
			return restartFit{}, f.err
		}
		fitted = fitted || f.pmf != nil
		if f.loglik > win.loglik {
			win = f
		}
	}
	switch {
	case win.pmf != nil:
		return win, nil
	case fitted:
		return restartFit{}, ErrNonFinite
	default:
		return restartFit{}, ErrNoLosses
	}
}

// fitScratch carries one worker's reusable EM work buffers.
type fitScratch struct {
	mmhd *mmhd.Scratch
	hmm  *hmm.Scratch
}

// fitPool recycles EM scratch buffers across identifications, so a steady
// streaming session allocates its forward-backward arrays once, not once
// per window. FitWithScratch resizes the buffers to each trace, and what
// the models retain across calls (Scratch.lastObs) is their own copy, so
// reuse cannot couple one fit to another.
var fitPool = sync.Pool{New: func() any { return new(fitScratch) }}

// fitFunc fits one EM restart; fitRestart is the only implementation
// outside tests.
type fitFunc func(ctx context.Context, obs []int, cfg *IdentifyConfig, r int, sc *fitScratch) restartFit

// fitRestart runs restart r of the configured model on the worker's
// scratch buffers. cancel (ctx.Done() of the identification) reaches the
// EM iteration loop, so a context deadline interrupts even a single
// long-running fit; a canceled fit reports ctx's error.
func fitRestart(ctx context.Context, obs []int, cfg *IdentifyConfig, r int, sc *fitScratch) restartFit {
	seed := stats.RestartSeed(cfg.Seed, r)
	var fit restartFit
	switch cfg.Model {
	case MMHD:
		if sc.mmhd == nil {
			sc.mmhd = mmhd.NewScratch()
		}
		_, r, err := mmhd.FitWithScratch(obs, mmhd.Config{
			HiddenStates: cfg.HiddenStates,
			Symbols:      cfg.Symbols,
			Threshold:    cfg.Threshold,
			MaxIter:      cfg.MaxIter,
			Seed:         seed,
			PerStateLoss: !cfg.PerSymbolLoss,
			Cancel:       ctx.Done(),
		}, sc.mmhd)
		if err != nil {
			if errors.Is(err, mmhd.ErrCanceled) && ctx.Err() != nil {
				err = ctx.Err()
			}
			return restartFit{err: err}
		}
		fit = restartFit{pmf: r.VirtualPMF, iterations: r.Iterations, converged: r.Converged, loglik: r.LogLik}
	default: // HMM; unknown kinds are rejected before the restart loop
		if sc.hmm == nil {
			sc.hmm = hmm.NewScratch()
		}
		_, r, err := hmm.FitWithScratch(obs, hmm.Config{
			HiddenStates: cfg.HiddenStates,
			Symbols:      cfg.Symbols,
			Threshold:    cfg.Threshold,
			MaxIter:      cfg.MaxIter,
			Seed:         seed,
			Cancel:       ctx.Done(),
		}, sc.hmm)
		if err != nil {
			if errors.Is(err, hmm.ErrCanceled) && ctx.Err() != nil {
				err = ctx.Err()
			}
			return restartFit{err: err}
		}
		fit = restartFit{pmf: r.VirtualPMF, iterations: r.Iterations, converged: r.Converged, loglik: r.LogLik}
	}
	return fit
}

// restartRun is the state the workers of one identification's EM
// restarts share: each claims the next restart index until all are taken
// or ctx is canceled.
type restartRun struct {
	ctx    context.Context
	obs    []int
	cfg    IdentifyConfig
	fit    fitFunc
	pool   *slotPool
	set    restartSet
	next   atomic.Int64
	active atomic.Int32 // the owner plus its live helpers
	wg     sync.WaitGroup
}

// step is one turn of the restart worker loop: claim the next restart and
// fit it into the set on the worker's scratch. It reports false once every
// restart is claimed or ctx is done. A panicking fit becomes that
// restart's error, so best() fails the identification whichever goroutine
// ran it; the worker then stops, and its scratch, which the panic may
// have left half built, is replaced.
func (run *restartRun) step(sc *fitScratch) (more bool) {
	r := int(run.next.Add(1)) - 1
	if r >= len(run.set) || run.ctx.Err() != nil {
		return false
	}
	defer func() {
		if p := recover(); p != nil {
			run.set[r] = restartFit{err: fmt.Errorf("core: identification panicked: %v", p)}
			*sc = fitScratch{}
			more = false
		}
	}()
	run.set[r] = run.fit(run.ctx, run.obs, &run.cfg, r, sc)
	return true
}

// help is a borrowing helper: it fits restarts on a slot borrowed from
// the pool and hands the slot back at its first restart boundary at which
// a window waits for one.
func (run *restartRun) help() {
	defer run.wg.Done()
	defer run.pool.release()
	defer run.active.Add(-1)
	sc := fitPool.Get().(*fitScratch)
	defer fitPool.Put(sc)
	for run.step(sc) && run.pool.waiters() == 0 {
	}
}

// runRestarts fits all cfg.Restarts EM initializations with fit (nil means
// fitRestart). The caller holds one slot of pool and fits restarts on its
// own goroutine, the owner. At each of its restart boundaries the owner
// starts one helper for every slot pool.tryAcquire grants, as long as the
// owner and its helpers stay no more than the unclaimed restarts and a
// positive cfg.Parallelism; each helper claims restarts from the same
// counter and returns its slot once a window waits (help). Under a flood
// every slot is held by a window, so the restarts run serially. Each
// worker reuses one set of scratch buffers across the restarts it claims,
// so the steady-state fit loop does not allocate, and the owner waits for
// its helpers before returning. cfg must have its defaults applied.
func runRestarts(ctx context.Context, obs []int, cfg IdentifyConfig, pool *slotPool, fit fitFunc) (restartSet, error) {
	if fit == nil {
		fit = fitRestart
	}
	run := &restartRun{ctx: ctx, obs: obs, cfg: cfg, fit: fit, pool: pool, set: make(restartSet, cfg.Restarts)}
	limit := cfg.Restarts
	if cfg.Parallelism > 0 {
		limit = min(limit, cfg.Parallelism)
	}
	run.active.Store(1)
	sc := fitPool.Get().(*fitScratch)
	for {
		// Helpers started here claim as they start, so the bound is on the
		// restarts unclaimed when the boundary began.
		for unclaimed := len(run.set) - int(run.next.Load()); int(run.active.Load()) < min(limit, unclaimed) && pool.tryAcquire(); {
			run.active.Add(1)
			run.wg.Add(1)
			go run.help()
		}
		if !run.step(sc) {
			break
		}
	}
	fitPool.Put(sc)
	run.wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run.set, nil
}

// IdentifyFromPMF applies the hypothesis tests and bound to an externally
// obtained virtual-queuing-delay distribution (e.g. the simulator ground
// truth, or a distribution fitted with custom model settings).
func IdentifyFromPMF(tr *trace.Trace, cfg IdentifyConfig, disc Discretization, pmf stats.PMF) *Identification {
	cfg.defaults()
	return identifyFromPMF(tr.LossRate(), cfg, disc, pmf, 0, true, 0)
}

func identifyFromPMF(lossRate float64, cfg IdentifyConfig, disc Discretization, pmf stats.PMF, iters int, conv bool, ll float64) *Identification {
	cdf := pmf.CDF()
	// SDCLTest and MaxQueuingDelayBound floor non-positive tolerances to
	// DefaultTolerance, so an exact zero tolerance (Tolerance=0 with
	// ExactTolerance) is expressed as the smallest positive float: the
	// strict "F(i) > 0" reading of Theorem 1.
	tol := cfg.Tolerance
	if tol == 0 && cfg.ExactTolerance {
		tol = math.SmallestNonzeroFloat64
	}
	id := &Identification{
		Config:       cfg,
		Disc:         disc,
		LossRate:     lossRate,
		VirtualPMF:   pmf,
		VirtualCDF:   cdf,
		SDCL:         SDCLTest(cdf, tol),
		WDCL:         WDCLTest(cdf, cfg.X, cfg.Y),
		EMIterations: iters,
		EMConverged:  conv,
		LogLik:       ll,
	}
	switch {
	case id.SDCL.Accept:
		id.BoundSeconds = MaxQueuingDelayBound(cdf, tol, disc)
	case id.WDCL.Accept:
		id.BoundSeconds = MaxQueuingDelayBound(cdf, cfg.X, disc)
	}
	return id
}
