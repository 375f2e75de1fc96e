package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"dominantlink/internal/trace"
)

// pmfEqual reports bit-exact equality of two PMFs. Determinism across
// schedules is a hard requirement, so no tolerance is allowed here.
func pmfEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIdentifyParallelismDeterministic checks the tentpole guarantee: for
// a fixed Seed, the parallel restart pool selects exactly the fit the
// serial loop selects — bit-identical log-likelihood, posterior and
// verdicts — whatever the worker count.
func TestIdentifyParallelismDeterministic(t *testing.T) {
	tr := synthTrace(6000, 0.020, 0.120, 0.25, 7)
	for _, model := range []ModelKind{MMHD, HMM} {
		base := IdentifyConfig{Model: model, X: 0.06, Y: 1e-9, Seed: 3, Restarts: 8}

		serialCfg := base
		serialCfg.Parallelism = 1
		serial, err := Identify(tr, serialCfg)
		if err != nil {
			t.Fatalf("%v serial: %v", model, err)
		}

		for _, workers := range []int{0, 2, 4, 8} {
			cfg := base
			cfg.Parallelism = workers
			got, err := Identify(tr, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", model, workers, err)
			}
			if got.LogLik != serial.LogLik {
				t.Errorf("%v workers=%d: loglik %.17g != serial %.17g",
					model, workers, got.LogLik, serial.LogLik)
			}
			if !pmfEqual(got.VirtualPMF, serial.VirtualPMF) {
				t.Errorf("%v workers=%d: posterior diverged\n got %v\nwant %v",
					model, workers, got.VirtualPMF, serial.VirtualPMF)
			}
			if got.EMIterations != serial.EMIterations || got.EMConverged != serial.EMConverged {
				t.Errorf("%v workers=%d: EM diagnostics diverged (%d,%v) vs (%d,%v)",
					model, workers, got.EMIterations, got.EMConverged,
					serial.EMIterations, serial.EMConverged)
			}
			if got.SDCL != serial.SDCL || got.WDCL != serial.WDCL {
				t.Errorf("%v workers=%d: verdicts diverged", model, workers)
			}
		}
	}
}

// TestIdentifyBatchMatchesLoneIdentify: batching must never change
// results, only wall-clock.
func TestIdentifyBatchMatchesLoneIdentify(t *testing.T) {
	traces := []*trace.Trace{
		synthTrace(3000, 0.020, 0.120, 0.25, 11),
		synthTrace(3000, 0.020, 0.090, 0.30, 12),
		synthTrace(3000, 0.015, 0.150, 0.20, 13),
	}
	cfg := IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 5, Restarts: 4}
	results := NewEngine(4).IdentifyBatch(context.Background(), traces, cfg)
	if len(results) != len(traces) {
		t.Fatalf("got %d results for %d traces", len(results), len(traces))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Index)
		}
		if res.Err != nil {
			t.Fatalf("trace %d: %v", i, res.Err)
		}
		lone, err := Identify(traces[i], cfg)
		if err != nil {
			t.Fatalf("lone identify %d: %v", i, err)
		}
		if res.ID.LogLik != lone.LogLik || !pmfEqual(res.ID.VirtualPMF, lone.VirtualPMF) {
			t.Errorf("trace %d: batch result differs from lone Identify", i)
		}
	}
}

// TestIdentifyBatchErrorIsolation: one bad trace yields an error in its
// slot while the rest of the batch succeeds.
func TestIdentifyBatchErrorIsolation(t *testing.T) {
	good := synthTrace(3000, 0.020, 0.120, 0.25, 21)
	noLosses := &trace.Trace{Observations: obsSeq([]float64{0.02, 0.03, 0.04, 0.05}, nil)}
	empty := &trace.Trace{}
	nanDelay := &trace.Trace{Observations: obsSeq([]float64{0.02, math.NaN(), 0.04, 0}, []bool{false, false, false, true})}
	results := NewEngine(2).IdentifyBatch(context.Background(),
		[]*trace.Trace{good, noLosses, empty, good, nanDelay}, IdentifyConfig{Seed: 1})
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("good traces failed: %v, %v", results[0].Err, results[3].Err)
	}
	if !errors.Is(results[4].Err, ErrNonFinite) {
		t.Fatalf("NaN-delay trace: got %v, want ErrNonFinite", results[4].Err)
	}
	if !errors.Is(results[1].Err, ErrNoLosses) {
		t.Fatalf("loss-free trace: got %v, want ErrNoLosses", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrEmptyTrace) {
		t.Fatalf("empty trace: got %v, want ErrEmptyTrace", results[2].Err)
	}
}

// TestIdentifyBatchCancellation: a canceled context stops the batch and
// fills every unfinished slot with the context's error.
func TestIdentifyBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	traces := make([]*trace.Trace, 16)
	for i := range traces {
		traces[i] = synthTrace(3000, 0.020, 0.120, 0.25, int64(30+i))
	}
	results := NewEngine(4).IdentifyBatch(ctx, traces, IdentifyConfig{Seed: 1, Restarts: 8})
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("job %d after cancel: err = %v, want context.Canceled", i, res.Err)
		}
		if res.ID != nil {
			t.Fatalf("job %d carries a result despite cancellation", i)
		}
	}
}

// TestIdentifyContextCancellation: cancellation also stops the restart
// loop inside a single identification.
func TestIdentifyContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := synthTrace(3000, 0.020, 0.120, 0.25, 41)
	if _, err := IdentifyContext(ctx, tr, IdentifyConfig{Restarts: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSentinelErrors: the pipeline errors match the exported sentinels
// through errors.Is, including when wrapped.
func TestSentinelErrors(t *testing.T) {
	if _, err := Identify(&trace.Trace{}, IdentifyConfig{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("empty trace: %v", err)
	}
	noLosses := &trace.Trace{Observations: obsSeq([]float64{0.02, 0.03, 0.04}, nil)}
	if _, err := Identify(noLosses, IdentifyConfig{}); !errors.Is(err, ErrNoLosses) {
		t.Fatalf("no losses: %v", err)
	}
	tr := synthTrace(2000, 0.020, 0.120, 0.25, 51)
	_, err := Identify(tr, IdentifyConfig{Model: ModelKind(99)})
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	// The wrapped message still names the offending kind.
	if got := err.Error(); got == ErrUnknownModel.Error() {
		t.Fatalf("unknown-model error not annotated: %q", got)
	}
}

// TestDefaultConfigAndExactMarkers: the zero value and DefaultConfig
// agree, and the Exact* markers make literal zeros reachable.
func TestDefaultConfigAndExactMarkers(t *testing.T) {
	d := DefaultConfig()
	if d.Symbols != 5 || d.HiddenStates != 2 || d.Threshold != 1e-3 ||
		d.MaxIter != 500 || d.Restarts != 5 ||
		d.X != 0.06 || d.Y != 0.06 || d.Tolerance != DefaultTolerance {
		t.Fatalf("DefaultConfig = %+v", d)
	}

	var zero IdentifyConfig
	zero.defaults()
	if zero != d {
		t.Fatalf("zero value defaults %+v != DefaultConfig %+v", zero, d)
	}

	// Without the marker a literal zero is clobbered by the default...
	implicit := IdentifyConfig{X: 0, Y: 0}
	implicit.defaults()
	if implicit.X != 0.06 || implicit.Y != 0.06 {
		t.Fatalf("unmarked zeros not defaulted: %+v", implicit)
	}
	// ...and with it the zero survives.
	exact := IdentifyConfig{ExactX: true, ExactY: true, ExactTolerance: true}
	exact.defaults()
	if exact.X != 0 || exact.Y != 0 || exact.Tolerance != 0 {
		t.Fatalf("Exact markers ignored: %+v", exact)
	}
}

// TestExactYStrictWDCL: an exact Y=0 runs the paper's strict delay
// condition end to end (and matches the old 1e-9 workaround).
func TestExactYStrictWDCL(t *testing.T) {
	tr := synthTrace(6000, 0.020, 0.120, 0.25, 61)
	strict, err := Identify(tr, IdentifyConfig{X: 0.06, Y: 0, ExactY: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strict.WDCL.Y != 0 {
		t.Fatalf("explicit Y=0 clobbered: ran WDCL with y=%v", strict.WDCL.Y)
	}
	legacy, err := Identify(tr, IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strict.WDCL.Accept != legacy.WDCL.Accept || strict.WDCL.IStar != legacy.WDCL.IStar {
		t.Fatalf("strict Y=0 verdict %+v != legacy 1e-9 verdict %+v", strict.WDCL, legacy.WDCL)
	}
}

// TestEngineWorkers: pool sizing rules.
func TestEngineWorkers(t *testing.T) {
	if NewEngine(3).Workers() != 3 {
		t.Fatal("explicit worker count ignored")
	}
	if NewEngine(0).Workers() < 1 || NewEngine(-1).Workers() < 1 {
		t.Fatal("non-positive worker count must default to GOMAXPROCS")
	}
}

// TestIdentifyJobsPerJobConfig: IdentifyJobs honors per-job settings (a
// parameter sweep over hidden-state counts).
func TestIdentifyJobsPerJobConfig(t *testing.T) {
	tr := synthTrace(3000, 0.020, 0.120, 0.25, 71)
	jobs := make([]Job, 3)
	for i := range jobs {
		jobs[i] = Job{Trace: tr, Config: IdentifyConfig{HiddenStates: i + 1, Seed: 1}}
	}
	for i, res := range NewEngine(3).IdentifyJobs(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatalf("N=%d: %v", i+1, res.Err)
		}
		if res.ID.Config.HiddenStates != i+1 {
			t.Fatalf("job %d ran with N=%d", i, res.ID.Config.HiddenStates)
		}
	}
}
