package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dominantlink/internal/core"
	"dominantlink/internal/trace"
)

// smallPlan is a workload's plan at test size.
func smallPlan(t *testing.T, wl workload, seed int64) *plan {
	t.Helper()
	p, err := newPlan(wl, seed, 12, 30)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b := smallPlan(t, wl, 7), smallPlan(t, wl, 7)
		other := smallPlan(t, wl, 8)
		for i := range a.paths {
			if len(a.paths[i].bodies) != len(b.paths[i].bodies) {
				t.Fatalf("%s path %d: %d vs %d bodies", wl.name, i, len(a.paths[i].bodies), len(b.paths[i].bodies))
			}
			for j := range a.paths[i].bodies {
				if !bytes.Equal(a.paths[i].bodies[j], b.paths[i].bodies[j]) {
					t.Fatalf("%s path %d body %d differs between runs of one seed", wl.name, i, j)
				}
			}
			if bytes.Equal(a.paths[i].bodies[0], other.paths[i].bodies[0]) {
				t.Errorf("%s path %d: seeds 7 and 8 give the same first body", wl.name, i)
			}
		}
	}
}

func TestPlanCounts(t *testing.T) {
	for _, wl := range workloads {
		p := smallPlan(t, wl, 3)
		windows := warmWindows + 12 + 30
		if p.windows() != windows {
			t.Fatalf("%s: %d windows, want %d", wl.name, p.windows(), windows)
		}
		if len(p.recovered) != wl.recovered {
			t.Errorf("%s: %d recovered paths, want %d", wl.name, len(p.recovered), wl.recovered)
		}
		for i, pp := range p.paths {
			n := (windows-1)*wl.stride + wl.window
			if len(pp.obs) != n || len(pp.bodies)*wl.post != n || len(pp.admit) != windows {
				t.Fatalf("%s path %d: %d obs, %d bodies, %d verdicts", wl.name, i, len(pp.obs), len(pp.bodies), len(pp.admit))
			}
			if !wl.flap && admitted(pp.admit) != windows {
				t.Errorf("%s path %d: %d windows admitted, want all %d", wl.name, i, admitted(pp.admit), windows)
			}
			if wl.flap {
				for b := 0; b+admitEvery <= windows; b += admitEvery {
					if n := admitted(pp.admit[b : b+admitEvery]); n != 1 {
						t.Fatalf("%s path %d: %d windows admitted in [%d, %d), want exactly 1", wl.name, i, n, b, b+admitEvery)
					}
				}
				if n := admitted(pp.admit); float64(n) > 0.05*float64(windows) {
					t.Errorf("%s path %d: %d of %d windows admitted, over 5%%", wl.name, i, n, windows)
				}
			}
			if !wl.gate {
				continue
			}
			for k := 0; k < windows; k++ {
				rep := core.StationarityCheck(&trace.Trace{Observations: p.window(i, k)}, core.StationarityConfig{})
				if rep.Stationary != pp.admit[k] {
					t.Fatalf("%s path %d window %d: gate says %v, plan says %v", wl.name, i, k, rep.Stationary, pp.admit[k])
				}
			}
		}
	}
}

func TestBodiesDecodeToTheStream(t *testing.T) {
	for _, wl := range workloads {
		p := smallPlan(t, wl, 5)
		for i, pp := range p.paths {
			var got []trace.Observation
			for _, body := range pp.bodies {
				var b *trace.Batch
				if pp.csv {
					b = trace.NewBatch(0)
					src := trace.StreamCSV(bytes.NewReader(body))
					for {
						if _, err := src.NextBatch(b, 0); err != nil {
							break
						}
					}
				} else {
					b = decodeJSONBody(t, body)
				}
				for j := 0; j < b.Len(); j++ {
					got = append(got, b.At(j))
				}
			}
			if len(got) != len(pp.obs) {
				t.Fatalf("%s path %d: bodies hold %d observations, stream %d", wl.name, i, len(got), len(pp.obs))
			}
			for j := range got {
				if got[j] != pp.obs[j] {
					t.Fatalf("%s path %d observation %d: body %+v, stream %+v", wl.name, i, j, got[j], pp.obs[j])
				}
			}
		}
	}
}

func TestCompletingPost(t *testing.T) {
	for _, wl := range workloads {
		p := smallPlan(t, wl, 1)
		for k := 0; k < p.windows(); k++ {
			c := wl.completingPost(k)
			last := k*wl.stride + wl.window - 1 // the window's last observation
			if c*wl.post > last || last >= (c+1)*wl.post {
				t.Fatalf("%s window %d: POST %d does not carry observation %d", wl.name, k, c, last)
			}
		}
		lo, hi := p.postRange(p.warm, p.warm+p.paced)
		if want := wl.completingPost(p.warm+p.paced-1) - wl.completingPost(p.warm-1); hi-lo != want {
			t.Errorf("%s: paced phase has %d POSTs, want %d", wl.name, hi-lo, want)
		}
	}
}

func TestEncodeBodyRefusedWhileTiming(t *testing.T) {
	timing.Store(true)
	defer timing.Store(false)
	if _, err := encodeBody(nil, false); err == nil {
		t.Fatal("a body was built inside a timed phase")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	if p, ok := percentile(seq(100), 0.9); !ok || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", p, ok)
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it, yet was accepted")
	}
	if p, ok := percentile(seq(1000), 0.99); !ok || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", p, ok)
	}
	if p, ok := percentile(seq(20), 0.5); !ok || p != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", p, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "verdict", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent at 100
		{Name: "d", Start: 25, End: 28, Parent: 2},  // grandchild: only b loses it
		{Name: "verdict", Start: 200, End: 210, Parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	rows := stageTable(spans, self)
	// Verdicts sum to 110 ns; their self time is 50 + 10.
	if rows[0].name != "verdict" || rows[0].n != 2 || math.Abs(rows[0].share-60.0/110) > 1e-12 {
		t.Errorf("verdict row %+v, want n=2 share=60/110", rows[0])
	}
	if got := shareOf(rows, "b"); math.Abs(got-27.0/110) > 1e-12 {
		t.Errorf("share of b = %v, want 27/110", got)
	}
}

// decodeJSONBody decodes a JSON POST body the way the daemon does.
func decodeJSONBody(t *testing.T, body []byte) *trace.Batch {
	t.Helper()
	var rows []obsRow
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	b := trace.NewBatch(len(rows))
	for _, r := range rows {
		b.Append(trace.Observation{Seq: r.Seq, SendTime: r.SendTime, Delay: r.Delay, Lost: r.Lost})
	}
	return b
}

// admitted counts the windows the gate is expected to admit.
func admitted(admit []bool) int {
	n := 0
	for _, a := range admit {
		if a {
			n++
		}
	}
	return n
}
