package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dominantlink/internal/stats"
	"dominantlink/internal/trace"
)

// collectStream drains a window stream into a slice.
func collectStream(t *testing.T, ch <-chan WindowResult) []WindowResult {
	t.Helper()
	var out []WindowResult
	for res := range ch {
		out = append(out, res)
	}
	return out
}

func startStream(t *testing.T, workers int, wcfg WindowConfig, src trace.ObservationSource, cfg IdentifyConfig) []WindowResult {
	t.Helper()
	ch, err := NewWindower(NewEngine(workers), wcfg).Stream(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return collectStream(t, ch)
}

// TestFullTraceWindowMatchesOneShot is the compatibility anchor of the
// streaming pipeline: one window spanning the whole trace must reproduce
// the row-major one-shot reference (rowref_test.go) exactly — same PMF,
// verdicts and bound.
func TestFullTraceWindowMatchesOneShot(t *testing.T) {
	tr := synthTrace(6000, 0.020, 0.120, 0.25, 1)
	cfg := IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 1}

	want, err := refIdentifyContext(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	n := len(tr.Observations)
	results := startStream(t, 4,
		WindowConfig{Size: n, Stride: n, DisableGate: true}, tr.Source(), cfg)
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	res := results[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Start != 0 || res.End != n {
		t.Fatalf("window range [%d,%d), want [0,%d)", res.Start, res.End, n)
	}
	got := res.ID
	if !reflect.DeepEqual(got.VirtualPMF, want.VirtualPMF) {
		t.Fatalf("PMF differs:\n got %v\nwant %v", got.VirtualPMF, want.VirtualPMF)
	}
	if got.SDCL != want.SDCL || got.WDCL != want.WDCL {
		t.Fatalf("verdicts differ: %+v/%+v vs %+v/%+v", got.SDCL, got.WDCL, want.SDCL, want.WDCL)
	}
	if got.BoundSeconds != want.BoundSeconds {
		t.Fatalf("bound %v != %v", got.BoundSeconds, want.BoundSeconds)
	}
	if got.LogLik != want.LogLik || got.EMIterations != want.EMIterations {
		t.Fatalf("EM diagnostics differ: loglik %v/%v iters %d/%d",
			got.LogLik, want.LogLik, got.EMIterations, want.EMIterations)
	}
}

func TestCountWindowsSlideAndStride(t *testing.T) {
	tr := synthTrace(5000, 0.020, 0.120, 0.25, 2)
	results := startStream(t, 2,
		WindowConfig{Size: 2000, Stride: 1000, DisableGate: true}, tr.Source(), IdentifyConfig{Seed: 1})
	// Starts 0, 1000, 2000, 3000 — the window starting at 4000 never
	// completes (only 1000 observations left) and must not be emitted.
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("window %d has index %d (out of order)", i, res.Index)
		}
		if res.Start != i*1000 || res.End != i*1000+2000 {
			t.Fatalf("window %d range [%d,%d), want [%d,%d)", i, res.Start, res.End, i*1000, i*1000+2000)
		}
		if res.Probes() != 2000 {
			t.Fatalf("window %d has %d probes", i, res.Probes())
		}
		if res.Err != nil {
			t.Fatalf("window %d: %v", i, res.Err)
		}
	}
}

func TestDurationWindows(t *testing.T) {
	// Probes every 20 ms for 30 s; 10 s windows sliding by 5 s. The last
	// start (20 s) never sees a probe at/after 30 s, so it stays open.
	tr := synthTrace(1500, 0.020, 0.120, 0.25, 3)
	results := startStream(t, 2,
		WindowConfig{Duration: 10, StrideDuration: 5, DisableGate: true},
		tr.Source(), IdentifyConfig{Seed: 1})
	if len(results) != 4 {
		t.Fatalf("got %d windows, want 4", len(results))
	}
	for i, res := range results {
		if res.Probes() != 500 {
			t.Fatalf("window %d has %d probes, want 500", i, res.Probes())
		}
		wantStart := 5 * float64(i)
		if res.StartTime != 0.02*float64(res.Start) || res.StartTime != wantStart {
			t.Fatalf("window %d starts at %v, want %v", i, res.StartTime, wantStart)
		}
	}
}

// phasedObs builds a stream whose loss behaviour flips between phases:
// quiet phases are loss-free with low delays, congested phases repeat the
// synthTrace pattern (losses only at the high-delay plateau).
func phasedObs(phases []bool, perPhase int, seed int64) []trace.Observation {
	rng := stats.NewRNG(seed)
	var obs []trace.Observation
	i := 0
	for _, congested := range phases {
		for k := 0; k < perPhase; k++ {
			o := trace.Observation{Seq: int64(i), SendTime: 0.02 * float64(i)}
			if congested && (k/200)%4 == 3 {
				o.Delay = 0.120 * rng.Uniform(0.95, 1.0)
				if rng.Float64() < 0.25 {
					o.Lost = true
				}
			} else {
				// Background delays as in synthTrace: spread over the lower
				// symbols so the delay process has structure to fit.
				o.Delay = 0.020 + (0.120-0.020)*rng.Float64()*0.5
			}
			obs = append(obs, o)
			i++
		}
	}
	return obs
}

func TestStreamTransitions(t *testing.T) {
	// quiet, quiet, congested, congested, quiet — tumbling windows aligned
	// with the phases must report onset at the first congested window and
	// clearance at the return to quiet.
	obs := phasedObs([]bool{false, false, true, true, false}, 4000, 11)
	results := startStream(t, 2,
		WindowConfig{Size: 4000, DisableGate: true},
		trace.NewSliceSource(obs), IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 1})
	if len(results) != 5 {
		t.Fatalf("got %d windows, want 5", len(results))
	}
	for i, want := range []struct {
		noLosses bool
		dcl      bool
		tr       Transition
	}{
		{true, false, TransitionNone},
		{true, false, TransitionNone},
		{false, true, TransitionOnset},
		{false, true, TransitionNone}, // same DCL, same bound
		{true, false, TransitionCleared},
	} {
		res := results[i]
		if errors.Is(res.Err, ErrNoLosses) != want.noLosses {
			t.Fatalf("window %d: err=%v, want noLosses=%v", i, res.Err, want.noLosses)
		}
		if res.HasDCL() != want.dcl {
			t.Fatalf("window %d: HasDCL=%v, want %v (%+v)", i, res.HasDCL(), want.dcl, res.ID)
		}
		if !res.Decided() {
			t.Fatalf("window %d should be decided", i)
		}
		if res.Transition != want.tr {
			t.Fatalf("window %d: transition %v, want %v", i, res.Transition, want.tr)
		}
	}
}

func TestStationarityGateRejectsRegimeChange(t *testing.T) {
	// A window whose second half is a loss storm at a new delay level is
	// exactly what the admission gate must keep away from the model.
	obs := phasedObs([]bool{false}, 2000, 5)
	rng := stats.NewRNG(6)
	for i := 2000; i < 4000; i++ {
		o := trace.Observation{Seq: int64(i), SendTime: 0.02 * float64(i), Delay: 0.120 * rng.Uniform(0.9, 1.0)}
		if rng.Float64() < 0.3 {
			o.Lost = true
		}
		obs = append(obs, o)
	}
	results := startStream(t, 1,
		WindowConfig{Size: 4000}, trace.NewSliceSource(obs), IdentifyConfig{Seed: 1})
	if len(results) != 1 {
		t.Fatalf("got %d windows, want 1", len(results))
	}
	res := results[0]
	if res.Admitted || res.Decided() {
		t.Fatalf("non-stationary window was admitted: %+v", res.Stationarity)
	}
	if res.ID != nil || res.Err != nil {
		t.Fatal("gated window must not be identified")
	}
	if res.Stationarity.Violations == 0 {
		t.Fatal("stationarity report shows no violations")
	}
}

func TestStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := synthTrace(6000, 0.020, 0.120, 0.25, 7)
	wcfg := WindowConfig{Size: 1500, Stride: 750, DisableGate: true}
	cfg := IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 3}
	serial := startStream(t, 1, wcfg, tr.Source(), cfg)
	parallel := startStream(t, 4, wcfg, tr.Source(), cfg)
	if len(serial) != len(parallel) {
		t.Fatalf("window counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Start != p.Start || s.End != p.End || s.Transition != p.Transition {
			t.Fatalf("window %d metadata diverged: %+v vs %+v", i, s, p)
		}
		if (s.ID == nil) != (p.ID == nil) {
			t.Fatalf("window %d: one run identified, the other did not", i)
		}
		if s.ID != nil {
			if !reflect.DeepEqual(s.ID.VirtualPMF, p.ID.VirtualPMF) || s.ID.LogLik != p.ID.LogLik {
				t.Fatalf("window %d fits diverged across worker counts", i)
			}
		}
	}
}

// errSource yields n observations, then fails.
type errSource struct {
	n int
	i int
}

func (s *errSource) Next() (trace.Observation, error) {
	if s.i >= s.n {
		return trace.Observation{}, fmt.Errorf("probe socket vanished")
	}
	o := trace.Observation{Seq: int64(s.i), SendTime: 0.02 * float64(s.i), Delay: 0.02}
	s.i++
	return o, nil
}

func TestStreamSurfacesSourceError(t *testing.T) {
	results := startStream(t, 1,
		WindowConfig{Size: 4, DisableGate: true}, &errSource{n: 10}, IdentifyConfig{Seed: 1})
	// Two complete windows (losses absent, so ErrNoLosses) plus the
	// terminal source-error result.
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	last := results[len(results)-1]
	if last.Err == nil || last.Admitted {
		t.Fatalf("terminal result should carry the source error, got %+v", last)
	}
	for _, res := range results[:2] {
		if !errors.Is(res.Err, ErrNoLosses) {
			t.Fatalf("window result %d: %v", res.Index, res.Err)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := synthTrace(20000, 0.020, 0.120, 0.25, 9)
	ch, err := NewWindower(NewEngine(2), WindowConfig{Size: 1000, DisableGate: true}).
		Stream(ctx, tr.Source(), IdentifyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-ch // first result
	cancel()
	for range ch {
		// Drain whatever was in flight; the channel must close promptly.
	}
}

// stalledSource blocks every Next call until unblocked — the "-follow"
// tail of a capture that stops growing, or a probe socket that went quiet.
type stalledSource struct{ unblock chan struct{} }

func (s *stalledSource) Next() (trace.Observation, error) {
	<-s.unblock
	return trace.Observation{}, io.EOF
}

// TestStreamCancelWithStalledSource is the regression test for the stuck
// producer: cancellation must close the stream promptly even while the
// Windower is blocked inside a source read that never returns.
func TestStreamCancelWithStalledSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &stalledSource{unblock: make(chan struct{})}
	defer close(src.unblock) // release the parked reader goroutine
	ch, err := NewWindower(NewEngine(1), WindowConfig{Size: 10, DisableGate: true}).
		Stream(ctx, src, IdentifyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("got a window result from a source that never produced one")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not shut down after cancellation with a stalled source")
	}
}

func TestFlushPartialCountWindows(t *testing.T) {
	tr := synthTrace(2500, 0.020, 0.120, 0.25, 4)
	results := startStream(t, 2,
		WindowConfig{Size: 1000, FlushPartial: true, DisableGate: true},
		tr.Source(), IdentifyConfig{Seed: 1})
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 2 complete + 1 partial", len(results))
	}
	last := results[2]
	if !last.Partial || last.Start != 2000 || last.End != 2500 {
		t.Fatalf("trailing window = %+v, want partial [2000,2500)", last)
	}
	for _, res := range results[:2] {
		if res.Partial {
			t.Fatalf("complete window %d marked partial", res.Index)
		}
	}
	// The flushed tail is a normal window otherwise: identified, and
	// counted by the transition state.
	if last.ID == nil && last.Err == nil {
		t.Fatal("partial window was not identified")
	}

	// Without the option the tail is dropped, as before.
	results = startStream(t, 2,
		WindowConfig{Size: 1000, DisableGate: true}, tr.Source(), IdentifyConfig{Seed: 1})
	if len(results) != 2 {
		t.Fatalf("got %d windows without FlushPartial, want 2", len(results))
	}
}

func TestFlushPartialDurationWindows(t *testing.T) {
	// 50 s of probes at 20 ms; 20 s tumbling windows leave a 10 s tail.
	tr := synthTrace(2500, 0.020, 0.120, 0.25, 4)
	results := startStream(t, 2,
		WindowConfig{Duration: 20, FlushPartial: true, DisableGate: true},
		tr.Source(), IdentifyConfig{Seed: 1})
	if len(results) != 3 {
		t.Fatalf("got %d windows, want 2 complete + 1 partial", len(results))
	}
	last := results[2]
	if !last.Partial || last.Probes() != 500 || last.StartTime < 40 {
		t.Fatalf("trailing window = %+v, want 500-probe partial from t=40s", last)
	}
}

// TestDurationWindowsWithProbeGap: irregular senders must not produce
// empty windows. A gap longer than several strides simply advances the
// window origin; every emitted window holds at least one probe and the
// post-gap windows pick up where the probes resume.
func TestDurationWindowsWithProbeGap(t *testing.T) {
	var obs []trace.Observation
	add := func(from, to int) { // tenths of a second, 10 probes/s
		for i := 10 * from; i < 10*to; i++ {
			obs = append(obs, trace.Observation{Seq: int64(len(obs)), SendTime: float64(i) / 10, Delay: 0.02})
		}
	}
	add(0, 5)   // 50 probes
	add(47, 60) // 42-second silence, then 130 probes
	results := startStream(t, 2,
		WindowConfig{Duration: 2, DisableGate: true},
		trace.NewSliceSource(obs), IdentifyConfig{Seed: 1})
	for i, res := range results {
		if res.Probes() == 0 {
			t.Fatalf("window %d is empty: %+v", i, res)
		}
		if res.Index != i {
			t.Fatalf("window %d has index %d", i, res.Index)
		}
	}
	// [0,2) [2,4) [4,6) then nothing until [46,48) [48,50) ... [56,58):
	// 3 pre-gap windows, 6 post-gap ones (the gap's 20 empty strides emit
	// nothing, and the final [58,60) window never sees a probe at t>=60
	// so it stays open).
	if len(results) != 9 {
		t.Fatalf("got %d windows, want 9", len(results))
	}
	if results[2].Probes() != 10 {
		t.Fatalf("window straddling the gap start has %d probes, want 10", results[2].Probes())
	}
	if got := results[3].StartTime; got != 47.0 {
		t.Fatalf("first post-gap window starts at t=%v, want 47", got)
	}
	if results[3].Probes() != 10 {
		t.Fatalf("first post-gap window has %d probes, want 10", results[3].Probes())
	}
}

// TestSharedEngineMatchesPrivateEngines: multiplexing several concurrent
// streams onto one shared identification pool must not change any
// stream's results — same windows, same fits — compared to each stream
// running on its own engine.
func TestSharedEngineMatchesPrivateEngines(t *testing.T) {
	wcfg := WindowConfig{Size: 1000, Stride: 500, DisableGate: true}
	cfg := IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 1}
	const paths = 4

	want := make([][]WindowResult, paths)
	for i := 0; i < paths; i++ {
		tr := synthTrace(3000, 0.020, 0.120, 0.25, int64(i+1))
		want[i] = startStream(t, 2, wcfg, tr.Source(), cfg)
	}

	eng := NewSharedEngine(2)
	got := make([][]WindowResult, paths)
	var wg sync.WaitGroup
	for i := 0; i < paths; i++ {
		tr := synthTrace(3000, 0.020, 0.120, 0.25, int64(i+1))
		ch, err := NewWindower(eng, wcfg).Stream(context.Background(), tr.Source(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, ch <-chan WindowResult) {
			defer wg.Done()
			for res := range ch {
				got[i] = append(got[i], res)
			}
		}(i, ch)
	}
	wg.Wait()

	for i := 0; i < paths; i++ {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("stream %d: %d windows on the shared engine, %d alone", i, len(got[i]), len(want[i]))
		}
		for k := range got[i] {
			g, w := got[i][k], want[i][k]
			if g.Start != w.Start || g.End != w.End || g.Transition != w.Transition {
				t.Fatalf("stream %d window %d metadata diverged: %+v vs %+v", i, k, g, w)
			}
			if (g.ID == nil) != (w.ID == nil) {
				t.Fatalf("stream %d window %d: identification presence diverged", i, k)
			}
			if g.ID != nil && (!reflect.DeepEqual(g.ID.VirtualPMF, w.ID.VirtualPMF) || g.ID.LogLik != w.ID.LogLik) {
				t.Fatalf("stream %d window %d: fits diverged on the shared engine", i, k)
			}
		}
	}
}

func TestWindowConfigValidation(t *testing.T) {
	_, err := NewWindower(NewEngine(1), WindowConfig{}).
		Stream(context.Background(), trace.NewSliceSource(nil), IdentifyConfig{})
	if err == nil {
		t.Fatal("zero window config must be rejected")
	}
}

func TestSummaryOmitsBoundWithoutDCL(t *testing.T) {
	tr := synthTrace(2000, 0.020, 0.120, 0.25, 5)
	disc, err := NewDiscretization(tr.Observations, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rejected := IdentifyFromPMF(tr, IdentifyConfig{}, disc, stats.PMF{0.2, 0.2, 0.2, 0.2, 0.2})
	if rejected.HasDCL() {
		t.Fatal("flat PMF should not identify a DCL")
	}
	if s := rejected.Summary(); !strings.Contains(s, "no dominant congested link") ||
		strings.Contains(s, "bound=") {
		t.Fatalf("rejected summary still prints a bound: %q", s)
	}
	accepted := IdentifyFromPMF(tr, IdentifyConfig{}, disc, stats.PMF{0, 0, 0, 0, 1})
	if s := accepted.Summary(); !strings.Contains(s, "bound=") {
		t.Fatalf("accepted summary lost its bound: %q", s)
	}
}
