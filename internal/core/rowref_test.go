package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dominantlink/internal/stats"
	"dominantlink/internal/trace"
)

// The row-major reference pipeline: a transcription of the one-shot
// implementation the columnar pipeline replaced — per-call delay slices,
// stats.NewEmpirical for every quantile, a freshly encoded symbol slice
// and the restart loop with its own best-fit reduction. The production
// row API (IdentifyContext, StationarityCheck, NewDiscretization,
// Discretization.Encode) now wraps the columnar pipeline, so the
// equivalence tests compare it, and the windower, against these
// functions. Only the EM fit of one restart (fitRestart) and the tests
// and bound (identifyFromPMF) are shared; the model golden tests pin
// those. Do not edit these functions to make a change pass.

// refIdentifyContext is the row-major IdentifyContext.
func refIdentifyContext(ctx context.Context, tr *trace.Trace, cfg IdentifyConfig) (*Identification, error) {
	cfg.defaults()
	if len(tr.Observations) == 0 {
		return nil, ErrEmptyTrace
	}
	if cfg.Model != MMHD && cfg.Model != HMM {
		return nil, fmt.Errorf("%w %d", ErrUnknownModel, cfg.Model)
	}
	disc, err := refNewDiscretization(tr.Observations, cfg.Symbols, cfg.KnownPropagation)
	if err != nil {
		return nil, err
	}
	obs := refEncode(disc, tr.Observations)

	emStart := time.Now()
	fits, err := refRunRestarts(ctx, obs, cfg)
	if err != nil {
		return nil, err
	}
	emTime := time.Since(emStart)
	var (
		pmf        stats.PMF
		iterations int
		converged  bool
		loglik     float64
	)
	loglik = math.Inf(-1)
	for r := range fits {
		if fits[r].err != nil {
			return nil, fits[r].err
		}
		// Strict > keeps the lowest restart index on ties, matching the
		// serial loop.
		if fits[r].loglik > loglik {
			pmf, iterations, converged, loglik =
				fits[r].pmf, fits[r].iterations, fits[r].converged, fits[r].loglik
		}
	}
	if pmf == nil {
		return nil, ErrNoLosses
	}
	id := identifyFromPMF(tr.LossRate(), cfg, disc, pmf, iterations, converged, loglik)
	id.EMTime = emTime
	return id, nil
}

// refRunRestarts fits all cfg.Restarts EM initializations, spreading them
// over min(cfg.Parallelism, Restarts) workers (0 means GOMAXPROCS). The
// returned slice is indexed by restart.
func refRunRestarts(ctx context.Context, obs []int, cfg IdentifyConfig) ([]restartFit, error) {
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Restarts {
		workers = cfg.Restarts
	}
	fits := make([]restartFit, cfg.Restarts)
	if workers <= 1 {
		sc := fitPool.Get().(*fitScratch)
		defer fitPool.Put(sc)
		for r := range fits {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			fits[r] = fitRestart(ctx, obs, &cfg, r, sc)
		}
		return fits, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := fitPool.Get().(*fitScratch)
			defer fitPool.Put(sc)
			for {
				r := int(next.Add(1)) - 1
				if r >= len(fits) || ctx.Err() != nil {
					return
				}
				fits[r] = fitRestart(ctx, obs, &cfg, r, sc)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return fits, nil
}

// refStationarityCheck is the row-major StationarityCheck.
func refStationarityCheck(tr *trace.Trace, cfg StationarityConfig) StationarityReport {
	cfg.defaults()
	rep := StationarityReport{LossRate: tr.LossRate()}
	n := len(tr.Observations)
	if n == 0 || cfg.Blocks < 1 {
		rep.Stationary = true
		return rep
	}

	var delays []float64
	for _, o := range tr.Observations {
		if !o.Lost {
			delays = append(delays, o.Delay)
		}
	}
	if len(delays) == 0 {
		rep.Stationary = false
		return rep
	}
	all := stats.NewEmpirical(delays)
	rep.Median = all.Quantile(0.5)
	spread := all.Max() - all.Min()

	blockLen := n / cfg.Blocks
	if blockLen == 0 {
		blockLen = 1
	}
	for start := 0; start < n; start += blockLen {
		end := start + blockLen
		if end > n {
			end = n
		}
		var bDelays []float64
		losses := 0
		for _, o := range tr.Observations[start:end] {
			if o.Lost {
				losses++
			} else {
				bDelays = append(bDelays, o.Delay)
			}
		}
		bs := BlockStats{Start: start, End: end}
		bs.LossRate = float64(losses) / float64(end-start)
		if len(bDelays) > 0 {
			bs.MedianDelay = stats.NewEmpirical(bDelays).Quantile(0.5)
		}
		rep.Blocks = append(rep.Blocks, bs)
		if end == n {
			break
		}
	}

	// Robust reference: the median block loss rate.
	rates := make([]float64, len(rep.Blocks))
	for i, b := range rep.Blocks {
		rates[i] = b.LossRate
	}
	rep.RefLossRate = stats.NewEmpirical(rates).Quantile(0.5)

	for _, bs := range rep.Blocks {
		if blockViolates(bs, rep, cfg, spread) {
			rep.Violations++
		}
	}
	rep.Stationary = rep.Violations == 0
	return rep
}

// refNewDiscretization is the row-major NewDiscretization.
func refNewDiscretization(obs []trace.Observation, m int, knownProp float64) (Discretization, error) {
	if m < 1 {
		return Discretization{}, errNeedSymbol
	}
	delays := make([]float64, 0, len(obs))
	for _, o := range obs {
		if !o.Lost {
			delays = append(delays, o.Delay)
		}
	}
	if len(delays) == 0 {
		return Discretization{}, errNoDelivered
	}
	e := stats.NewEmpirical(delays)
	lo := e.Min()
	hi := e.Quantile(RangeQuantile)
	if knownProp > 0 {
		lo = knownProp
	}
	if hi <= lo {
		hi = lo + 1e-9 // degenerate but well-defined
	}
	return Discretization{M: m, Lo: lo, Hi: hi, BinWidth: (hi - lo) / float64(m)}, nil
}

// refEncode is the row-major Discretization.Encode.
func refEncode(d Discretization, obs []trace.Observation) []int {
	out := make([]int, len(obs))
	for i, o := range obs {
		if o.Lost {
			out[i] = 0
		} else {
			out[i] = d.Symbol(o.Delay)
		}
	}
	return out
}

// sameBits reports whether a and b hold the same value, walking structs,
// slices and pointers and comparing floats by their bit patterns, so NaN
// fields compare equal and -0 differs from 0. A nil slice differs from an
// empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	default:
		return a.Equal(b)
	}
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestRowAPIMatchesReference holds every row entry point, now a wrapper
// over the columnar pipeline, to the row-major reference on ordinary and
// edge-case traces: every return value bit for bit (EM wall-clock time
// aside), errors by message. A case with err set departs from the
// reference on purpose: the reference identifies a window with a
// non-finite delivered delay, the pipeline refuses it.
func TestRowAPIMatchesReference(t *testing.T) {
	type tc struct {
		name string
		tr   *trace.Trace
		cfg  IdentifyConfig
		err  error // want this from IdentifyContext and NewDiscretization
	}
	// Three restarts keep the reduction over several fits while holding
	// the test to about a second.
	var cases []tc
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, tc{fmt.Sprintf("synth-%d", seed), synthTrace(1500, 0.020, 0.120, 0.25, seed), IdentifyConfig{Seed: seed, Restarts: 3}, nil})
	}
	synth := synthTrace(1500, 0.020, 0.120, 0.25, 7)
	// withDelay is the seed-8 trace with probe 10, delivered (block 0 is
	// loss-free), given delay d.
	withDelay := func(d float64) *trace.Trace {
		tr := synthTrace(1500, 0.020, 0.120, 0.25, 8)
		tr.Observations[10].Delay = d
		return tr
	}
	cases = append(cases,
		tc{"hmm", synth, IdentifyConfig{Model: HMM, Seed: 1, Restarts: 3}, nil},
		tc{"per-symbol-loss", synth, IdentifyConfig{PerSymbolLoss: true, Seed: 1, Restarts: 3}, nil},
		tc{"known-propagation", synth, IdentifyConfig{KnownPropagation: 0.015, Seed: 1, Restarts: 3}, nil},
		tc{"one-symbol", synth, IdentifyConfig{Symbols: 1, Seed: 1, Restarts: 3}, nil},
		tc{"empty", &trace.Trace{}, IdentifyConfig{}, nil},
		tc{"one-observation", &trace.Trace{Observations: obsSeq([]float64{0.03}, nil)}, IdentifyConfig{}, nil},
		tc{"all-lost", &trace.Trace{Observations: obsSeq([]float64{0, 0, 0}, []bool{true, true, true})}, IdentifyConfig{}, nil},
		tc{"unknown-model", synth, IdentifyConfig{Model: ModelKind(99)}, nil},
		tc{"no-losses", &trace.Trace{Observations: obsSeq([]float64{0.02, 0.03, 0.04, 0.05}, nil)}, IdentifyConfig{}, nil},
		tc{"nan-delay", withDelay(math.NaN()), IdentifyConfig{Seed: 1, Restarts: 3}, ErrNonFinite},
		tc{"inf-delay", withDelay(math.Inf(1)), IdentifyConfig{Seed: 1, Restarts: 3}, ErrNonFinite},
		tc{"neg-inf-delay", withDelay(math.Inf(-1)), IdentifyConfig{Seed: 1, Restarts: 3}, ErrNonFinite},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			got, gotErr := IdentifyContext(ctx, c.tr, c.cfg)
			want, wantErr := refIdentifyContext(ctx, c.tr, c.cfg)
			if c.err != nil {
				want, wantErr = nil, c.err
			}
			if got != nil && want != nil {
				got.EMTime, want.EMTime = 0, 0
			}
			if !sameErr(gotErr, wantErr) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("IdentifyContext:\n got %+v, %v\nwant %+v, %v", got, gotErr, want, wantErr)
			}

			gotRep := StationarityCheck(c.tr, StationarityConfig{})
			wantRep := refStationarityCheck(c.tr, StationarityConfig{})
			if !sameBits(reflect.ValueOf(gotRep), reflect.ValueOf(wantRep)) {
				t.Fatalf("StationarityCheck:\n got %+v\nwant %+v", gotRep, wantRep)
			}

			cfg := c.cfg
			cfg.defaults()
			gotDisc, gotErr := NewDiscretization(c.tr.Observations, cfg.Symbols, cfg.KnownPropagation)
			wantDisc, wantErr := refNewDiscretization(c.tr.Observations, cfg.Symbols, cfg.KnownPropagation)
			refDisc := wantDisc
			if c.err != nil {
				wantDisc, wantErr = Discretization{}, c.err
			}
			if !sameErr(gotErr, wantErr) || !sameBits(reflect.ValueOf(gotDisc), reflect.ValueOf(wantDisc)) {
				t.Fatalf("NewDiscretization:\n got %+v, %v\nwant %+v, %v", gotDisc, gotErr, wantDisc, wantErr)
			}
			if gotEnc, wantEnc := refDisc.Encode(c.tr.Observations), refEncode(refDisc, c.tr.Observations); !sameBits(reflect.ValueOf(gotEnc), reflect.ValueOf(wantEnc)) {
				t.Fatalf("Encode:\n got %v\nwant %v", gotEnc, wantEnc)
			}
		})
	}
}
