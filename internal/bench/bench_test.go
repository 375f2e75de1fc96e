package bench

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// tinySpecs is a minimal matrix — one spec per workload — sized so the
// whole test runs in a couple of seconds.
func tinySpecs() []Spec {
	return []Spec{
		{Name: "hmm/tiny", Workload: WorkloadHMM, TraceLen: 400, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 1, Reps: 2},
		{Name: "mmhd/tiny", Workload: WorkloadMMHD, TraceLen: 300, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 2, Reps: 2},
		{Name: "streaming/tiny", Workload: WorkloadStreaming, TraceLen: 1200, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 3, WindowSize: 400, Restarts: 1},
		{Name: "monitor/tiny", Workload: WorkloadMonitor, TraceLen: 800, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 4, WindowSize: 400, Restarts: 1, Sessions: 2},
		{Name: "monitor/tiny-store", Workload: WorkloadMonitor, TraceLen: 800, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 4, WindowSize: 400, Restarts: 1, Sessions: 2, Store: true, Fsync: "interval"},
		{Name: "monitor/tiny-obs", Workload: WorkloadMonitor, TraceLen: 800, LossRate: 0.05, Symbols: 4, Hidden: 2, Seed: 4, WindowSize: 400, Restarts: 1, Sessions: 2, Obs: true},
		{Name: "store/tiny", Workload: WorkloadStore, TraceLen: 500, Symbols: 4, Seed: 5, WindowSize: 400, Fsync: "none"},
	}
}

func TestRunAllWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	specs := tinySpecs()
	results := RunAll(ctx, specs, nil)
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Name, r.Err)
			continue
		}
		if r.Ops <= 0 || r.NsPerOp <= 0 || r.FitsPerSec <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
		}
		if r.P99Ms < r.P50Ms {
			t.Errorf("%s: p99 %.2f < p50 %.2f", r.Name, r.P99Ms, r.P50Ms)
		}
		// The store append path reuses its encode buffers, so steady-state
		// appends are alloc-free; amortized allocs/op above 1 means the hot
		// path started allocating (a regression the ratio gate cannot see
		// from a zero baseline).
		if r.Workload == WorkloadStore && r.AllocsPerOp > 1 {
			t.Errorf("%s: %d allocs/op on the append path, want <= 1", r.Name, r.AllocsPerOp)
		}
	}
}

func TestSymbolTraceDeterministic(t *testing.T) {
	a := SymbolTrace(500, 5, 0.05, 42)
	b := SymbolTrace(500, 5, 0.05, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	seen := map[int]bool{}
	for _, v := range a {
		seen[v] = true
	}
	for v := 1; v <= 5; v++ {
		if !seen[v] {
			t.Errorf("symbol %d never generated", v)
		}
	}
}

func TestDelayTraceDeterministic(t *testing.T) {
	a := DelayTrace(500, 0.05, 7)
	b := DelayTrace(500, 0.05, 7)
	if a.LossRate() != b.LossRate() {
		t.Fatalf("loss rates diverge: %v vs %v", a.LossRate(), b.LossRate())
	}
	for i := range a.Observations {
		if a.Observations[i] != b.Observations[i] {
			t.Fatalf("observations diverge at %d", i)
		}
	}
	if a.LossRate() == 0 {
		t.Error("trace has no losses; fits cannot infer a posterior")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := NewReport(time.Unix(0, 0), []Result{
		{Name: "a", FitsPerSec: 100},
		{Name: "b", FitsPerSec: 100},
		{Name: "only-base", FitsPerSec: 100},
	})
	cur := NewReport(time.Unix(0, 0), []Result{
		{Name: "a", FitsPerSec: 85},       // within 20%
		{Name: "b", FitsPerSec: 75},       // regression
		{Name: "only-cur", FitsPerSec: 1}, // no baseline: ignored
	})
	regs := Compare(base, cur, 0.2)
	if len(regs) != 1 || regs[0].Name != "b" {
		t.Fatalf("got regressions %+v, want exactly [b]", regs)
	}
}

func TestCompareObsOverhead(t *testing.T) {
	rep := NewReport(time.Unix(0, 0), []Result{
		{Name: "monitor/s4", FitsPerSec: 100},
		{Name: "monitor/s4-obs", FitsPerSec: 96}, // within 5%
		{Name: "monitor/s2", FitsPerSec: 100},
		{Name: "monitor/s2-obs", FitsPerSec: 90}, // over the gate
		{Name: "orphan-obs", FitsPerSec: 1},      // no bare twin: ignored
		{Name: "monitor/err", FitsPerSec: 100},
		{Name: "monitor/err-obs", Err: "boom"}, // failed side: ignored
	})
	regs := CompareObsOverhead(rep)
	if len(regs) != 1 || regs[0].Name != "monitor/s2-obs" {
		t.Fatalf("got regressions %+v, want exactly [monitor/s2-obs]", regs)
	}
	if regs[0].Ratio >= 1-ObsOverheadTolerance {
		t.Fatalf("flagged ratio %.2f is above the gate", regs[0].Ratio)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := NewReport(time.Unix(1700000000, 0), []Result{{Name: "x", Workload: WorkloadHMM, Ops: 3, NsPerOp: 5, FitsPerSec: 2.5}})
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != "dclbench/1" || len(got.Results) != 1 || got.Results[0] != rep.Results[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestRunTwinsAlternatesAndTakesMedians: a twin pair runs in TwinRounds
// rounds with the first side alternating, and each side reports its
// median round, so one slow round on either side does not move the gate.
func TestRunTwinsAlternatesAndTakesMedians(t *testing.T) {
	bare, withObs := Spec{Name: "monitor/x"}, Spec{Name: "monitor/x-obs"}
	// Just under half the rounds of each side are slow: the bare side's
	// first ones, the obs side's last ones.
	slow := TwinRounds/2 - 1
	var order []string
	run := func(_ context.Context, s Spec) Result {
		i := 0
		for _, name := range order {
			if name == s.Name {
				i++
			}
		}
		order = append(order, s.Name)
		fits := 100.0
		switch {
		case s.Name == bare.Name && i < slow:
			fits = 40
		case s.Name == withObs.Name && i >= TwinRounds-slow:
			fits = 30
		case s.Name == withObs.Name:
			fits = 96
		}
		return Result{Name: s.Name, FitsPerSec: fits}
	}
	a, b := runTwins(context.Background(), bare, withObs, run)
	if len(order) != 2*TwinRounds {
		t.Fatalf("%d runs, want %d", len(order), 2*TwinRounds)
	}
	for i := 0; i < len(order); i += 2 {
		first := bare.Name
		if (i/2)%2 == 1 {
			first = withObs.Name
		}
		if order[i] != first {
			t.Fatalf("round %d ran %s first, want %s (order %v)", i/2, order[i], first, order)
		}
	}
	if a.FitsPerSec != 100 || b.FitsPerSec != 96 {
		t.Fatalf("medians = %.0f and %.0f fits/sec, want 100 and 96", a.FitsPerSec, b.FitsPerSec)
	}
	if regs := CompareObsOverhead(&Report{Results: []Result{a, b}}); len(regs) != 0 {
		t.Fatalf("a 4%% median overhead was flagged: %v", regs)
	}

	specs := []Spec{bare, {Name: "store/y"}, withObs}
	if twin, ok := obsTwin(specs, withObs); !ok || twin.Name != bare.Name {
		t.Fatalf("obsTwin(%s) = %v, %v", withObs.Name, twin, ok)
	}
	if _, ok := obsTwin(specs, specs[1]); ok {
		t.Fatal("store/y has no twin")
	}
}
