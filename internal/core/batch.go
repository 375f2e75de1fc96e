package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dominantlink/internal/stats"
	"dominantlink/internal/trace"
)

// The identification pipeline of §V, the only implementation of its
// steps: gather a window's delivered delays once into a pooled
// pipelineScratch, then run the stationarity gate, discretization, symbol
// encoding and the EM restarts out of the scratch's reused buffers. The
// streaming windower hands each window here as a trace.Batch view; the
// row-major entry points (StationarityCheck, NewDiscretization,
// Discretization.Encode, IdentifyContext, Engine.IdentifyJobs) convert
// their observations with trace.BatchOfObservations and call the same
// functions. rowref_test.go keeps the row-major implementation they
// replaced as the reference both must match bit for bit.

// pipelineScratch carries one window's reusable buffers across the
// stationarity check, discretization and symbol encoding. gather must run
// before the stages that read delays/sorted. Scratches are pooled; none of
// the slices escape into results.
type pipelineScratch struct {
	delays      []float64 // delivered one-way delays, trace order
	sorted      []float64 // delays, ascending
	blockSorted []float64 // one stationarity block's delays, ascending
	rates       []float64 // per-block loss rates, ascending
	symbols     []int     // encoded model input
}

var pipelinePool = sync.Pool{New: func() any { return new(pipelineScratch) }}

// gather fills delays (delivered probes, trace order) and sorted from the
// batch. The sort is the single ordering every downstream quantile shares.
func (sc *pipelineScratch) gather(b *trace.Batch) {
	sc.delays = b.AppendDelivered(sc.delays[:0])
	sc.sorted = append(sc.sorted[:0], sc.delays...)
	sort.Float64s(sc.sorted)
}

// gatherRows converts row-major observations into a batch and a pooled
// scratch gathered from it: the first step of every row entry point. The
// caller returns sc to pipelinePool.
func gatherRows(obs []trace.Observation) (*trace.Batch, *pipelineScratch) {
	b := trace.BatchOfObservations(obs)
	sc := pipelinePool.Get().(*pipelineScratch)
	sc.gather(b)
	return b, sc
}

// stationarityCheckBatch is StationarityCheck on a columnar window: block
// loss counts come from the loss bitmap (a popcount per block) and block
// delay medians from contiguous subranges of the gathered delays. sc must
// be gathered from b.
func stationarityCheckBatch(b *trace.Batch, cfg StationarityConfig, sc *pipelineScratch) StationarityReport {
	cfg.defaults()
	rep := StationarityReport{LossRate: b.LossRate()}
	n := b.Len()
	if n == 0 || cfg.Blocks < 1 {
		rep.Stationary = true
		return rep
	}
	if len(sc.delays) == 0 {
		rep.Stationary = false
		return rep
	}
	rep.Median = stats.QuantileSorted(sc.sorted, 0.5)
	spread := sc.sorted[len(sc.sorted)-1] - sc.sorted[0]

	blockLen := n / cfg.Blocks
	if blockLen == 0 {
		blockLen = 1
	}
	rep.Blocks = make([]BlockStats, 0, (n+blockLen-1)/blockLen)
	// Delivered delays of block [start, end) are the contiguous range
	// sc.delays[dFrom : dFrom+delivered]: blocks partition the window in
	// order, so a running cursor replaces the per-block re-gather.
	dFrom := 0
	for start := 0; start < n; start += blockLen {
		end := start + blockLen
		if end > n {
			end = n
		}
		losses := b.LossCountRange(start, end)
		delivered := (end - start) - losses
		bs := BlockStats{Start: start, End: end}
		bs.LossRate = float64(losses) / float64(end-start)
		if delivered > 0 {
			sc.blockSorted = append(sc.blockSorted[:0], sc.delays[dFrom:dFrom+delivered]...)
			sort.Float64s(sc.blockSorted)
			bs.MedianDelay = stats.QuantileSorted(sc.blockSorted, 0.5)
		}
		dFrom += delivered
		rep.Blocks = append(rep.Blocks, bs)
		if end == n {
			break
		}
	}

	sc.rates = sc.rates[:0]
	for _, bs := range rep.Blocks {
		sc.rates = append(sc.rates, bs.LossRate)
	}
	sort.Float64s(sc.rates)
	rep.RefLossRate = stats.QuantileSorted(sc.rates, 0.5)

	for _, bs := range rep.Blocks {
		if blockViolates(bs, rep, cfg, spread) {
			rep.Violations++
		}
	}
	rep.Stationary = rep.Violations == 0
	return rep
}

// discretizeBatch is NewDiscretization from an already-gathered scratch.
func discretizeBatch(m int, knownProp float64, sc *pipelineScratch) (Discretization, error) {
	if m < 1 {
		return Discretization{}, errNeedSymbol
	}
	if len(sc.sorted) == 0 {
		return Discretization{}, errNoDelivered
	}
	// sort.Float64s orders NaN first, then -Inf, and +Inf last.
	if first, last := sc.sorted[0], sc.sorted[len(sc.sorted)-1]; math.IsNaN(first) || math.IsInf(first, 0) || math.IsInf(last, 0) {
		return Discretization{}, ErrNonFinite
	}
	lo := sc.sorted[0]
	hi := stats.QuantileSorted(sc.sorted, RangeQuantile)
	if knownProp > 0 {
		lo = knownProp
	}
	if hi <= lo {
		hi = lo + 1e-9 // degenerate but well-defined
	}
	return Discretization{M: m, Lo: lo, Hi: hi, BinWidth: (hi - lo) / float64(m)}, nil
}

// encodeBatch is Discretization.Encode into the scratch's symbol buffer.
// The models copy what they retain (Scratch.lastObs), so handing them a
// pooled buffer is safe.
func encodeBatch(b *trace.Batch, d Discretization, sc *pipelineScratch) []int {
	n := b.Len()
	if cap(sc.symbols) < n {
		sc.symbols = make([]int, n)
	} else {
		sc.symbols = sc.symbols[:n]
	}
	for i := 0; i < n; i++ {
		if b.Lost(i) {
			sc.symbols[i] = 0
		} else {
			sc.symbols[i] = d.Symbol(b.Delay(i))
		}
	}
	return sc.symbols
}

// identifyBatchContext identifies one columnar window: discretize, encode,
// fit the EM restarts with fit (nil means fitRestart), borrowing slots
// from pool, where the caller holds one (runRestarts), and test the best
// fit. sc must be gathered from b.
func identifyBatchContext(ctx context.Context, b *trace.Batch, cfg IdentifyConfig, pool *slotPool, fit fitFunc, sc *pipelineScratch) (*Identification, error) {
	cfg.defaults()
	if b.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	if cfg.Model != MMHD && cfg.Model != HMM {
		return nil, fmt.Errorf("%w %d", ErrUnknownModel, cfg.Model)
	}
	disc, err := discretizeBatch(cfg.Symbols, cfg.KnownPropagation, sc)
	if err != nil {
		return nil, err
	}
	emStart := time.Now()
	set, err := runRestarts(ctx, encodeBatch(b, disc, sc), cfg, pool, fit)
	if err != nil {
		return nil, err
	}
	emTime := time.Since(emStart)
	win, err := set.best()
	if err != nil {
		return nil, err
	}
	id := identifyFromPMF(b.LossRate(), cfg, disc, win.pmf, win.iterations, win.converged, win.loglik)
	id.EMTime = emTime
	return id, nil
}
