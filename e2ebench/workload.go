package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"dominantlink/internal/bench"
	"dominantlink/internal/core"
	"dominantlink/internal/stats"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// workload is one traffic mix the benchmark drives the daemon with: the
// window shape the daemon runs, how the generator cuts each path's probe
// stream into POSTs, and how big each phase is.
type workload struct {
	name string

	window int  // observations per window
	stride int  // observations between window starts
	post   int  // observations per POST; divides window and stride
	gate   bool // stationarity gate on
	csv    bool // the second live path posts CSV instead of JSON
	flap   bool // live traces flap, so the gate rejects nearly every window

	// pacedRate is the paced phase's verdict rate over both paths
	// (windows/s); floodWindows is the flood backlog per path.
	pacedRate    float64
	floodWindows int

	// recovered paths are written to the WAL before the daemon starts and
	// reopened by it; replayRate is the rate of their GET /results?since=0
	// reads during the paced phase. The DCL workloads keep one small
	// recovered path, so replay_p50_ms reads the WAL there too. Each read
	// briefly slows the verdicts beside it, so on flap-replay the rate
	// keeps that share, plus the admitted windows, well under the 10%
	// beyond p90.
	recovered        int
	recoveredWindows int
	replayRate       float64
}

// livePaths is the number of paths every workload ingests into.
const livePaths = 2

var workloads = []workload{
	// EM dominates and windows share no work: the bypass case for
	// warm-started EM and windower tail migration.
	{
		name:   "tumbling-dcl",
		window: 1500, stride: 1500, post: 1500,
		pacedRate: 5, floodWindows: 80,
		recovered: 1, recoveredWindows: 2000, replayRate: 2,
	},
	// The same EM cost at stride 375, so each probe lands in 4 windows:
	// where warm-started EM and the windower's tail copy act.
	{
		name:   "sliding-dcl",
		window: 1500, stride: 375, post: 375,
		pacedRate: 5, floodWindows: 80,
		recovered: 1, recoveredWindows: 2000, replayRate: 2,
	},
	// The gate rejects 96% of windows, so HTTP ingest, store and fan-out
	// dominate, while a 16-path WAL is reopened and replayed beside the
	// live writes.
	{
		name:   "flap-replay",
		window: 1000, stride: 1000, post: 100, gate: true, csv: true, flap: true,
		pacedRate: 8, floodWindows: 1200,
		recovered: 16, recoveredWindows: 20000, replayRate: 0.5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// identifyConfig is the identification configuration of dclserved under
// its default flags: MMHD, M=5, N=2, 5 restarts, x=0.06, the strict y=0,
// EM seed 1. The one-shot check identifies windows with exactly this.
func identifyConfig() core.IdentifyConfig {
	return core.IdentifyConfig{Symbols: 5, HiddenStates: 2, Seed: 1}.WithX(0.06).WithY(0)
}

// completingPost is the index of the POST whose last observation completes
// window k.
func (wl workload) completingPost(k int) int {
	return (k*wl.stride+wl.window)/wl.post - 1
}

// admitEvery sets the share of flap-replay windows generated to pass the
// stationarity gate: one in every block of admitEvery consecutive
// windows, 4% exactly in every phase. It stays under 5% so both verdict
// percentiles sit in the cheap gate-rejected mode.
const admitEvery = 25

// plan is a workload's generated input for one seed and run length:
// every path's observation stream and its POST bodies, encoded up front.
type plan struct {
	wl    workload
	seed  int64
	warm  int // windows per path before timing starts
	paced int // windows per path in the paced phase
	flood int // windows per path in the flood phase
	paths []*pathPlan
	// recovered lists the ids of the paths written to the WAL in set-up.
	recovered []string
}

// pathPlan is one live path's input.
type pathPlan struct {
	id     string
	csv    bool
	obs    []trace.Observation // the whole stream, lost delays zeroed
	bodies [][]byte            // one per POST, in order
	admit  []bool              // expected gate verdict per window
}

func (p *plan) windows() int { return p.warm + p.paced + p.flood }

// postRange returns the POST indexes [lo, hi) that complete windows
// [k0, k1).
func (p *plan) postRange(k0, k1 int) (lo, hi int) {
	if k0 > 0 {
		lo = p.wl.completingPost(k0-1) + 1
	}
	return lo, p.wl.completingPost(k1-1) + 1
}

// window returns the observations of window k of path i.
func (p *plan) window(i, k int) []trace.Observation {
	start := k * p.wl.stride
	return p.paths[i].obs[start : start+p.wl.window]
}

// warmWindows is the number of windows per path sent before timing
// starts: enough for the daemon's first fits to grow their scratch.
const warmWindows = 4

// minPacedVerdicts keeps p90 honest: at least ten verdicts lie beyond it.
const minPacedVerdicts = 100

// pacedWindows is the number of windows per path the paced phase sends
// in the given time, and at least minVerdicts over all paths.
func (wl workload) pacedWindows(seconds float64, minVerdicts int) int {
	n := int(math.Ceil(wl.pacedRate * seconds / livePaths))
	return max(n, (minVerdicts+livePaths-1)/livePaths)
}

// floodBacklog is the flood's windows per path at the given share of the
// workload's full backlog (0 = no flood phase).
func (wl workload) floodBacklog(share float64) int {
	return int(math.Ceil(float64(wl.floodWindows) * share))
}

// newPlan generates the workload's input for a seed: warm-up, paced and
// flood windows per path.
func newPlan(wl workload, seed int64, paced, flood int) (*plan, error) {
	p := &plan{wl: wl, seed: seed, warm: warmWindows, paced: paced, flood: flood}
	rng := stats.NewRNG(seed)
	for i := 0; i < livePaths; i++ {
		pp := &pathPlan{id: fmt.Sprintf("live-%d", i), csv: wl.csv && i == 1}
		prng := rng.Split(int64(i + 1))
		n := (p.windows()-1)*wl.stride + wl.window
		if wl.flap {
			obs, admit, err := flapTrace(prng, p.windows(), wl.window)
			if err != nil {
				return nil, err
			}
			pp.obs, pp.admit = obs, admit
		} else {
			// The DCL workloads run with the gate off: every window is
			// identified.
			pp.obs = bench.DelayTrace(n, 0.04, prng.Int63()).Observations
			pp.admit = make([]bool, p.windows())
			for k := range pp.admit {
				pp.admit[k] = true
			}
		}
		for j := range pp.obs {
			if pp.obs[j].Lost {
				pp.obs[j].Delay = 0 // the daemon zeroes it on ingest
			}
		}
		for lo := 0; lo < n; lo += wl.post {
			body, err := encodeBody(pp.obs[lo:lo+wl.post], pp.csv)
			if err != nil {
				return nil, err
			}
			pp.bodies = append(pp.bodies, body)
		}
		p.paths = append(p.paths, pp)
	}
	for i := 0; i < wl.recovered; i++ {
		p.recovered = append(p.recovered, fmt.Sprintf("recovered-%02d", i))
	}
	return p, nil
}

// obsRow is the JSON wire form of one observation.
type obsRow struct {
	Seq      int64   `json:"seq"`
	SendTime float64 `json:"send_time"`
	Delay    float64 `json:"delay"`
	Lost     bool    `json:"lost"`
}

// encodeBody renders one POST body. Building a body inside a timed phase
// is a benchmark bug, so it is refused there.
func encodeBody(obs []trace.Observation, csv bool) ([]byte, error) {
	if timing.Load() {
		return nil, fmt.Errorf("request body built inside a timed phase")
	}
	if csv {
		var buf bytes.Buffer
		if err := (&trace.Trace{Observations: obs}).WriteCSV(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	rows := make([]obsRow, len(obs))
	for i, o := range obs {
		rows[i] = obsRow{Seq: o.Seq, SendTime: o.SendTime, Delay: o.Delay, Lost: o.Lost}
	}
	return json.Marshal(rows)
}

// flapTrace generates a flapping path: every window is drawn either as a
// stationary DCL-like window or as one with a delay level shift, and
// redrawn until core.StationarityCheck gives the intended verdict, so
// exactly one window in every admitEvery, at a seeded position, passes
// the gate.
func flapTrace(rng *stats.RNG, windows, size int) ([]trace.Observation, []bool, error) {
	admit := make([]bool, windows)
	for b := 0; b < windows; b += admitEvery {
		if k := b + rng.Intn(admitEvery); k < windows {
			admit[k] = true
		}
	}
	obs := make([]trace.Observation, 0, windows*size)
	level := 0.015
	for k := 0; k < windows; k++ {
		base := len(obs)
		for attempt := 0; ; attempt++ {
			if attempt == 100 {
				return nil, nil, fmt.Errorf("flap window %d: no draw matched the gate verdict", k)
			}
			obs = obs[:base]
			if admit[k] {
				for j := 0; j < size; j++ {
					obs = append(obs, probe(base+j, 0.020+rng.Exp(0.004), rng.Float64() < 0.03))
				}
			} else {
				shift := size/5 + rng.Intn(3*size/5)
				for j := 0; j < size; j++ {
					if j == shift {
						level = 0.075 - level // flap between 15 and 60 ms
					}
					obs = append(obs, probe(base+j, level+rng.Exp(0.002), rng.Float64() < 0.02))
				}
			}
			rep := core.StationarityCheck(&trace.Trace{Observations: obs[base:]}, core.StationarityConfig{})
			if rep.Stationary == admit[k] {
				break
			}
		}
	}
	return obs, admit, nil
}

// probe is observation i of a 10 ms probe stream.
func probe(i int, delay float64, lost bool) trace.Observation {
	if lost {
		delay = 0
	}
	return trace.Observation{Seq: int64(i), SendTime: float64(i) * 0.010, Delay: delay, Lost: lost}
}

// writeRecoveredWAL writes the recovered paths' logs through the store's
// own append path, as a daemon that ran earlier would have left them.
func writeRecoveredWAL(dir string, p *plan) error {
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNone})
	if err != nil {
		return err
	}
	rng := stats.NewRNG(p.seed).Split(1000)
	for _, id := range p.recovered {
		l, err := st.Log(id)
		if err != nil {
			st.Close()
			return err
		}
		for k := 0; k < p.wl.recoveredWindows; k++ {
			rec := store.Record{Kind: store.KindWindow, Window: recoveredWindow(rng, k, p.wl.window)}
			if err := l.Append(&rec); err != nil {
				st.Close()
				return err
			}
		}
	}
	return st.Close()
}

// recoveredWindow is a plausible decided window record.
func recoveredWindow(rng *stats.RNG, k, size int) store.Window {
	pmf := make([]float64, 5)
	sum := 0.0
	for i := range pmf {
		pmf[i] = rng.Float64()
		sum += pmf[i]
	}
	for i := range pmf {
		pmf[i] /= sum
	}
	loss := 0.01 + 0.05*rng.Float64()
	bound := 0.005 + 0.03*rng.Float64()
	return store.Window{
		Window: k, Start: k * size, End: (k + 1) * size,
		StartTime: float64(k*size) * 0.010, EndTime: float64((k+1)*size-1) * 0.010,
		Stationary: true, Admitted: true, Decided: true, HasDCL: true, WDCL: true,
		LossRate: loss, BoundSeconds: bound, PMF: pmf,
		LogLik: -900 - 200*rng.Float64(), EMIterations: 40 + rng.Intn(200),
		Summary: fmt.Sprintf("weakly dominant congested link (x=0.06 y=0.00); loss=%.2f%% i*=%d F(2i*)=%.3f bound=%.1fms",
			100*loss, 1+rng.Intn(4), rng.Float64(), 1e3*bound),
	}
}
