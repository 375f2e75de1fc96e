package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dominantlink/internal/trace"
)

// These tests pin the zero-copy data plane to the copying pipeline it
// replaced: refStream below is a direct transcription of the
// pre-refactor Windower — materialize the stream, cut windows with the
// same boundary rules, copy each window's observations into a fresh
// trace, run the row-major reference stationarity check and one-shot
// identification (rowref_test.go), classify transitions in order. Every
// WindowResult field except wall-clock timings must match the ring-buffer
// pipeline bit for bit.

// refStream replicates the copying windower over a materialized
// observation slice.
func refStream(t *testing.T, obs []trace.Observation, wcfg WindowConfig, cfg IdentifyConfig) []WindowResult {
	t.Helper()
	if err := (&wcfg).defaults(); err != nil {
		t.Fatal(err)
	}
	type span struct {
		start, end int
		partial    bool
	}
	var spans []span
	if wcfg.Size > 0 {
		winStart := 0
		for winStart+wcfg.Size <= len(obs) {
			spans = append(spans, span{winStart, winStart + wcfg.Size, false})
			winStart += wcfg.Stride
		}
		if wcfg.FlushPartial && winStart < len(obs) {
			spans = append(spans, span{winStart, len(obs), true})
		}
	} else {
		liveStart := 0
		if len(obs) > 0 {
			t0 := obs[0].SendTime
			for liveStart < len(obs) && obs[len(obs)-1].SendTime >= t0+wcfg.Duration {
				cut := 0
				for liveStart+cut < len(obs) && obs[liveStart+cut].SendTime < t0+wcfg.Duration {
					cut++
				}
				if cut > 0 {
					spans = append(spans, span{liveStart, liveStart + cut, false})
				}
				t0 += wcfg.StrideDuration
				for liveStart < len(obs) && obs[liveStart].SendTime < t0 {
					liveStart++
				}
			}
		}
		if wcfg.FlushPartial && liveStart < len(obs) {
			spans = append(spans, span{liveStart, len(obs), true})
		}
	}

	st := transitionState{delta: wcfg.BoundDelta}
	out := make([]WindowResult, 0, len(spans))
	for i, sp := range spans {
		win := append([]trace.Observation(nil), obs[sp.start:sp.end]...)
		tr := &trace.Trace{Observations: win}
		res := WindowResult{Index: i, Start: sp.start, End: sp.end, Partial: sp.partial,
			StartTime: win[0].SendTime, EndTime: win[len(win)-1].SendTime}
		res.Stationarity = refStationarityCheck(tr, wcfg.Gate)
		res.Admitted = wcfg.DisableGate || res.Stationarity.Stationary
		if res.Admitted {
			res.ID, res.Err = refIdentifyContext(context.Background(), tr, cfg)
		}
		st.apply(&res)
		out = append(out, res)
	}
	return out
}

// diffResults fails the test on the first field (wall-clock timings
// aside) where got diverges from the reference.
func diffResults(t *testing.T, got, want []WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End || g.Partial != w.Partial {
			t.Fatalf("window %d span: got [%d,%d) partial=%v index=%d, want [%d,%d) partial=%v index=%d",
				i, g.Start, g.End, g.Partial, g.Index, w.Start, w.End, w.Partial, w.Index)
		}
		if math.Float64bits(g.StartTime) != math.Float64bits(w.StartTime) ||
			math.Float64bits(g.EndTime) != math.Float64bits(w.EndTime) {
			t.Fatalf("window %d times: got [%v,%v], want [%v,%v]", i, g.StartTime, g.EndTime, w.StartTime, w.EndTime)
		}
		if !reflect.DeepEqual(g.Stationarity, w.Stationarity) {
			t.Fatalf("window %d stationarity report diverged:\n got %+v\nwant %+v", i, g.Stationarity, w.Stationarity)
		}
		if g.Admitted != w.Admitted || g.Shed != w.Shed {
			t.Fatalf("window %d admission: got admitted=%v shed=%v, want %v/%v", i, g.Admitted, g.Shed, w.Admitted, w.Shed)
		}
		if g.Transition != w.Transition {
			t.Fatalf("window %d transition %v, want %v", i, g.Transition, w.Transition)
		}
		if (g.Err == nil) != (w.Err == nil) ||
			(g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Fatalf("window %d error: got %v, want %v", i, g.Err, w.Err)
		}
		if (g.ID == nil) != (w.ID == nil) {
			t.Fatalf("window %d: identification presence diverged (got %v, want %v)", i, g.ID != nil, w.ID != nil)
		}
		if g.ID != nil {
			gid, wid := *g.ID, *w.ID
			gid.EMTime, wid.EMTime = 0, 0
			if !reflect.DeepEqual(gid, wid) {
				t.Fatalf("window %d identification diverged:\n got %+v\nwant %+v", i, gid, wid)
			}
		}
	}
}

// TestWindowerMatchesCopyingReference is the bit-identity property test
// of the columnar refactor: over a seeded table of window shapes —
// tumbling, overlapping (stride < size, the copy-on-overlap path),
// stride > size, duration-based, FlushPartial tails, and a gated stream
// with non-stationary windows — the ring-buffer pipeline must emit
// byte-identical WindowResult sequences to the copying reference.
func TestWindowerMatchesCopyingReference(t *testing.T) {
	cfg := IdentifyConfig{X: 0.06, Y: 1e-9, Seed: 3, Restarts: 2, Symbols: 4}
	cases := []struct {
		name    string
		wcfg    WindowConfig
		workers int
		seed    int64
		n       int
	}{
		{"tumbling-count", WindowConfig{Size: 1200, DisableGate: true}, 3, 21, 4800},
		{"sliding-overlap", WindowConfig{Size: 1500, Stride: 500, DisableGate: true}, 4, 22, 4500},
		{"stride-gt-size", WindowConfig{Size: 800, Stride: 1200, DisableGate: true}, 2, 23, 4800},
		{"count-flush-partial", WindowConfig{Size: 1000, FlushPartial: true, DisableGate: true}, 3, 24, 3500},
		{"duration-sliding", WindowConfig{Duration: 10, StrideDuration: 5, DisableGate: true}, 3, 25, 3000},
		{"duration-flush-partial", WindowConfig{Duration: 12, FlushPartial: true, DisableGate: true}, 2, 26, 3300},
		{"gated-overlap", WindowConfig{Size: 1500, Stride: 750}, 3, 27, 4500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := synthTrace(tc.n, 0.020, 0.120, 0.25, tc.seed)
			want := refStream(t, tr.Observations, tc.wcfg, cfg)
			got := startStream(t, tc.workers, tc.wcfg, tr.Source(), cfg)
			diffResults(t, got, want)
		})
	}
}

// TestWindowerRecycledChunksStayIsolated drives the chunk recycler hard
// — many small overlapping windows identified concurrently, so chunks
// are retired, migrated and reused while earlier windows' views are
// still being fit — and checks every result against the copying
// reference. A window observing a recycled buffer would corrupt its
// delays and diverge; under -race the detector additionally vets the
// refcount and bitmap ordering.
func TestWindowerRecycledChunksStayIsolated(t *testing.T) {
	cfg := IdentifyConfig{Seed: 5, Restarts: 1, Symbols: 4}
	wcfg := WindowConfig{Size: 400, Stride: 100, DisableGate: true}
	tr := synthTrace(4000, 0.020, 0.120, 0.25, 31)
	want := refStream(t, tr.Observations, wcfg, cfg)
	got := startStream(t, 4, wcfg, tr.Source(), cfg)
	diffResults(t, got, want)
}
