// Package bench is the repo's reproducible performance harness: a fixed,
// seeded matrix of identification workloads — direct hmm/mmhd EM fits, the
// windowed streaming pipeline, and a multi-session monitor load test — each
// measured into a machine-readable Result (ns/op, allocs/op, fits/sec, EM
// latency percentiles). cmd/dclbench runs the matrix and emits the
// BENCH_*.json reports that EXPERIMENTS.md and the CI regression gate are
// built on. Every workload derives its input from its Spec's seed alone, so
// two runs of the same matrix measure byte-identical work.
package bench

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/hmm"
	"dominantlink/internal/mmhd"
	"dominantlink/internal/monitor"
	"dominantlink/internal/obs"
	"dominantlink/internal/stats"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// Workload names.
const (
	WorkloadHMM       = "hmm"
	WorkloadMMHD      = "mmhd"
	WorkloadStreaming = "streaming"
	WorkloadMonitor   = "monitor"
	WorkloadStore     = "store"
)

// Spec is one scenario of the benchmark matrix. The zero fields of the
// inapplicable workload are ignored (e.g. Sessions for an hmm spec).
type Spec struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`

	TraceLen int     `json:"trace_len"` // observations (per session, for monitor)
	LossRate float64 `json:"loss_rate"`
	Symbols  int     `json:"symbols"`
	Hidden   int     `json:"hidden_states"`
	Seed     int64   `json:"seed"`

	// Fit workloads (hmm, mmhd).
	Reps         int  `json:"reps,omitempty"` // timed fits
	PerStateLoss bool `json:"per_state_loss,omitempty"`

	// Pipeline workloads (streaming, monitor).
	WindowSize int `json:"window_size,omitempty"` // probes per window
	Restarts   int `json:"restarts,omitempty"`    // EM restarts per window
	Sessions   int `json:"sessions,omitempty"`    // monitor only

	// Durable store. For the store workload TraceLen is the record count
	// and Fsync the policy; for the monitor workload Store attaches a
	// temporary result store so the append path rides inside the timed
	// region (the restart-durability overhead the acceptance gate bounds).
	Store bool   `json:"store,omitempty"`
	Fsync string `json:"fsync,omitempty"` // "", "interval", "always", "none"

	// Obs turns the observability layer on for the monitor workload: a
	// JSON logger at info into io.Discard, so the timed region pays the
	// full trace-collection and log-formatting cost without any I/O
	// noise. Name the spec "<bare>-obs" and CompareObsOverhead gates the
	// throughput delta against the bare spec.
	Obs bool `json:"obs,omitempty"`
}

// Result is the measured outcome of one Spec. An "op" is one EM fit for
// the hmm/mmhd workloads and one window identification (Restarts EM fits
// plus the hypothesis tests) for the streaming/monitor workloads.
type Result struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`

	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	FitsPerSec  float64 `json:"fits_per_sec"`

	// EM latency distribution over the ops, milliseconds. For the monitor
	// workload these come from the daemon's cumulative histogram, so they
	// are bucket upper bounds rather than exact order statistics.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	Err string `json:"error,omitempty"`
}

// Report is the serialized output of a matrix run.
type Report struct {
	Schema    string   `json:"schema"` // "dclbench/1"
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Started   string   `json:"started"` // RFC3339
	Results   []Result `json:"results"`
}

// NewReport stamps the run environment around rs.
func NewReport(started time.Time, rs []Result) *Report {
	return &Report{
		Schema:    "dclbench/1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Started:   started.UTC().Format(time.RFC3339),
		Results:   rs,
	}
}

// DefaultSpecs is the full benchmark matrix: trace lengths × loss rates ×
// models × restart counts, one spec per published row.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "hmm/T2k", Workload: WorkloadHMM, TraceLen: 2000, LossRate: 0.03, Symbols: 4, Hidden: 2, Seed: 1, Reps: 12},
		{Name: "hmm/T10k", Workload: WorkloadHMM, TraceLen: 10000, LossRate: 0.03, Symbols: 4, Hidden: 2, Seed: 2, Reps: 6},
		{Name: "hmm/T10k-loss10", Workload: WorkloadHMM, TraceLen: 10000, LossRate: 0.10, Symbols: 4, Hidden: 2, Seed: 3, Reps: 6},
		{Name: "mmhd/m5-T2k", Workload: WorkloadMMHD, TraceLen: 2000, LossRate: 0.03, Symbols: 5, Hidden: 2, Seed: 4, Reps: 8},
		{Name: "mmhd/m5-T10k", Workload: WorkloadMMHD, TraceLen: 10000, LossRate: 0.03, Symbols: 5, Hidden: 2, Seed: 5, Reps: 4},
		{Name: "mmhd/m5-perstate-T2k", Workload: WorkloadMMHD, TraceLen: 2000, LossRate: 0.03, Symbols: 5, Hidden: 2, Seed: 6, Reps: 8, PerStateLoss: true},
		{Name: "streaming/w3000", Workload: WorkloadStreaming, TraceLen: 30000, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 7, WindowSize: 3000, Restarts: 2},
		{Name: "monitor/s4", Workload: WorkloadMonitor, TraceLen: 8000, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 8, WindowSize: 2000, Restarts: 2, Sessions: 4},
		{Name: "monitor/s4-store", Workload: WorkloadMonitor, TraceLen: 8000, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 8, WindowSize: 2000, Restarts: 2, Sessions: 4, Store: true, Fsync: "interval"},
		{Name: "monitor/s4-obs", Workload: WorkloadMonitor, TraceLen: 8000, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 8, WindowSize: 2000, Restarts: 2, Sessions: 4, Obs: true},
		{Name: "store/append-interval", Workload: WorkloadStore, TraceLen: 20000, Symbols: 5, Seed: 9, WindowSize: 2000, Fsync: "interval"},
		{Name: "store/append-none", Workload: WorkloadStore, TraceLen: 20000, Symbols: 5, Seed: 9, WindowSize: 2000, Fsync: "none"},
		{Name: "store/append-always", Workload: WorkloadStore, TraceLen: 2000, Symbols: 5, Seed: 9, WindowSize: 2000, Fsync: "always"},
	}
}

// QuickSpecs is the CI matrix: one spec per workload, sized to finish in
// well under a minute while still exercising every hot path.
func QuickSpecs() []Spec {
	return []Spec{
		{Name: "hmm/T2k", Workload: WorkloadHMM, TraceLen: 2000, LossRate: 0.03, Symbols: 4, Hidden: 2, Seed: 1, Reps: 15},
		{Name: "mmhd/m5-T2k", Workload: WorkloadMMHD, TraceLen: 2000, LossRate: 0.03, Symbols: 5, Hidden: 2, Seed: 4, Reps: 7},
		{Name: "streaming/w1500", Workload: WorkloadStreaming, TraceLen: 9000, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 7, WindowSize: 1500, Restarts: 2},
		{Name: "monitor/s2", Workload: WorkloadMonitor, TraceLen: 4500, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 8, WindowSize: 1500, Restarts: 2, Sessions: 2},
		{Name: "monitor/s2-obs", Workload: WorkloadMonitor, TraceLen: 4500, LossRate: 0.04, Symbols: 5, Hidden: 2, Seed: 8, WindowSize: 1500, Restarts: 2, Sessions: 2, Obs: true},
		{Name: "store/append-interval", Workload: WorkloadStore, TraceLen: 20000, Symbols: 5, Seed: 9, WindowSize: 2000, Fsync: "interval"},
	}
}

// Run measures one spec.
func Run(ctx context.Context, spec Spec) Result {
	res := Result{Name: spec.Name, Workload: spec.Workload}
	var err error
	switch spec.Workload {
	case WorkloadHMM, WorkloadMMHD:
		err = runFits(spec, &res)
	case WorkloadStreaming:
		err = runStreaming(ctx, spec, &res)
	case WorkloadMonitor:
		err = runMonitor(ctx, spec, &res)
	case WorkloadStore:
		err = runStore(spec, &res)
	default:
		err = fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// TwinRounds is how many rounds RunAll measures an observability twin
// pair ("<x>" and "<x>-obs") in. The twins alternate within the run, and
// each reports its median round, so CompareObsOverhead gates the ratio of
// two medians rather than of two single runs. One quick-matrix round of
// monitor/s2 times 6 windows, and the ratio of one round each varied
// with a standard deviation of ~0.1 on a shared 2-vCPU host; over 49
// rounds the ratio of medians varied by ~0.016, a third of the 5% gate.
const TwinRounds = 49

// RunAll measures every spec in order, reporting progress through report
// (which may be nil). A spec with an observability twin in specs is
// measured with it, in TwinRounds alternating rounds, when the first of
// the two comes up.
func RunAll(ctx context.Context, specs []Spec, report func(Result)) []Result {
	out := make([]Result, 0, len(specs))
	twinResults := map[string]Result{}
	for _, spec := range specs {
		if ctx.Err() != nil {
			break
		}
		r, ok := twinResults[spec.Name]
		if !ok {
			if twin, found := obsTwin(specs, spec); found {
				var tr Result
				r, tr = runTwins(ctx, spec, twin, Run)
				twinResults[twin.Name] = tr
			} else {
				r = Run(ctx, spec)
			}
		}
		if report != nil {
			report(r)
		}
		out = append(out, r)
	}
	return out
}

// obsTwin returns the spec of specs that pairs with spec for the
// observability-overhead gate: "<x>-obs" for "<x>", and "<x>" for
// "<x>-obs".
func obsTwin(specs []Spec, spec Spec) (Spec, bool) {
	name, ok := strings.CutSuffix(spec.Name, obsSuffix)
	if !ok {
		name = spec.Name + obsSuffix
	}
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// runTwins measures a and b in TwinRounds rounds, a first in even rounds
// and b first in odd ones, and returns each side's median round by
// fits/sec. A round that fails is returned as that side's result.
func runTwins(ctx context.Context, a, b Spec, run func(context.Context, Spec) Result) (Result, Result) {
	var ra, rb []Result
	for i := 0; i < TwinRounds && ctx.Err() == nil; i++ {
		if i%2 == 0 {
			ra = append(ra, run(ctx, a))
			rb = append(rb, run(ctx, b))
		} else {
			rb = append(rb, run(ctx, b))
			ra = append(ra, run(ctx, a))
		}
	}
	return medianRound(ra), medianRound(rb)
}

// medianRound returns the round with the median fits/sec, or the first
// failed round.
func medianRound(rs []Result) Result {
	for _, r := range rs {
		if r.Err != "" {
			return r
		}
	}
	rs = append([]Result(nil), rs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].FitsPerSec < rs[j].FitsPerSec })
	return rs[len(rs)/2]
}

// SymbolTrace generates a deterministic discrete observation sequence for
// the direct fit workloads: a sticky two-regime symbol chain (low symbols
// in one regime, high in the other) with i.i.d. losses, full symbol
// coverage guaranteed. Identical to reruns with the same arguments.
func SymbolTrace(T, symbols int, lossRate float64, seed int64) []int {
	rng := stats.NewRNG(seed)
	obs := make([]int, T)
	half := symbols/2 + 1
	regime := 0
	for t := 0; t < T; t++ {
		if rng.Float64() < 0.02 {
			regime = 1 - regime
		}
		var v int
		if regime == 0 {
			v = 1 + rng.Intn(half)
		} else {
			v = symbols - rng.Intn(half)
		}
		if rng.Float64() < lossRate {
			obs[t] = 0 // loss
		} else {
			obs[t] = v
		}
	}
	for v := 1; v <= symbols && v < T; v++ {
		obs[v] = v // guarantee coverage so EM sees every symbol
	}
	return obs
}

// DelayTrace generates a deterministic probe trace for the pipeline
// workloads: 10 ms probe spacing, a two-regime queuing-delay process
// (light exponential vs heavy congested), losses concentrated in the
// congested regime — the paper's dominant-congested-link shape, so the
// identifications the benchmark times resemble production decisions.
func DelayTrace(T int, lossRate float64, seed int64) *trace.Trace {
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{Observations: make([]trace.Observation, T)}
	regime := 0
	for t := 0; t < T; t++ {
		if rng.Float64() < 0.01 {
			regime = 1 - regime
		}
		delay := 0.010 + rng.Exp(0.002) // propagation + light queueing
		loss := false
		if regime == 1 {
			delay += 0.030 * rng.Float64() // congested: up to +30ms
			loss = rng.Float64() < 2.5*lossRate
		} else {
			loss = rng.Float64() < 0.2*lossRate
		}
		tr.Observations[t] = trace.Observation{
			Seq:      int64(t),
			SendTime: float64(t) * 0.010,
			Delay:    delay,
			Lost:     loss,
		}
	}
	return tr
}

// runFits times Reps EM fits of the configured model over one fixed trace,
// reusing one scratch (the engine's steady state).
func runFits(spec Spec, res *Result) error {
	obs := SymbolTrace(spec.TraceLen, spec.Symbols, spec.LossRate, spec.Seed)
	lat := make([]time.Duration, 0, spec.Reps)

	var fit func(rep int) error
	switch spec.Workload {
	case WorkloadHMM:
		sc := hmm.NewScratch()
		fit = func(rep int) error {
			_, _, err := hmm.FitWithScratch(obs, hmm.Config{
				HiddenStates: spec.Hidden, Symbols: spec.Symbols,
				Seed: stats.RestartSeed(spec.Seed, rep),
			}, sc)
			return err
		}
	default:
		sc := mmhd.NewScratch()
		fit = func(rep int) error {
			_, _, err := mmhd.FitWithScratch(obs, mmhd.Config{
				HiddenStates: spec.Hidden, Symbols: spec.Symbols,
				Seed:         stats.RestartSeed(spec.Seed, rep),
				PerStateLoss: spec.PerStateLoss,
			}, sc)
			return err
		}
	}

	if err := fit(0); err != nil { // warmup: grow the scratch, load caches
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for rep := 0; rep < spec.Reps; rep++ {
		t0 := time.Now()
		if err := fit(rep); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	res.Ops = spec.Reps
	res.NsPerOp = wall.Nanoseconds() / int64(spec.Reps)
	res.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(spec.Reps)
	res.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(spec.Reps)
	res.P50Ms, res.P99Ms = percentilesMS(lat)
	// Fits are serial, so a single rep's latency determines the sustained
	// rate. The gate compares fits/sec across runs and machines under
	// unknown background load, so it wants the most load-robust statistic:
	// the fastest rep, which is the one that ran uncontended.
	best := lat[0]
	for _, d := range lat[1:] {
		if d < best {
			best = d
		}
	}
	res.FitsPerSec = 1e9 / float64(best.Nanoseconds())
	return nil
}

// runStreaming pushes one trace through the windowed pipeline and times
// the per-window identifications (WindowResult.Elapsed).
func runStreaming(ctx context.Context, spec Spec, res *Result) error {
	tr := DelayTrace(spec.TraceLen, spec.LossRate, spec.Seed)
	engine := core.NewEngine(0)
	w := core.NewWindower(engine, core.WindowConfig{
		Size: spec.WindowSize, DisableGate: true, FlushPartial: true,
	})
	cfg := core.IdentifyConfig{
		Symbols: spec.Symbols, HiddenStates: spec.Hidden,
		Restarts: spec.Restarts, Seed: spec.Seed,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ch, err := w.Stream(ctx, tr.Source(), cfg)
	if err != nil {
		return err
	}
	lat := make([]time.Duration, 0, spec.TraceLen/spec.WindowSize+1)
	for wr := range ch {
		if wr.Err != nil {
			return wr.Err
		}
		if wr.ID != nil {
			lat = append(lat, wr.Elapsed)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if len(lat) == 0 {
		return fmt.Errorf("streaming produced no identified windows")
	}
	n := int64(len(lat))
	res.Ops = len(lat)
	res.NsPerOp = wall.Nanoseconds() / n
	res.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / n
	res.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / n
	res.FitsPerSec = float64(n) / wall.Seconds()
	res.P50Ms, res.P99Ms = percentilesMS(lat)
	return nil
}

// runMonitor load-tests the monitoring daemon's library core: Sessions
// concurrent per-path sessions over one shared identification pool, each
// fed a full trace as one columnar batch (OfferBatch, the zero-copy
// ingest path), then drained. Latency percentiles come from the monitor's
// own histogram (bucket upper bounds); allocs are measured across the
// whole timed region, so they include ingestion and queue machinery, not
// just the fits.
func runMonitor(ctx context.Context, spec Spec, res *Result) error {
	mcfg := monitor.Config{
		QueueSize: spec.TraceLen + 1, // whole trace fits: no backpressure in the timed region
		Window: core.WindowConfig{
			Size: spec.WindowSize, DisableGate: true, FlushPartial: true,
		},
		Identify: core.IdentifyConfig{
			Symbols: spec.Symbols, HiddenStates: spec.Hidden,
			Restarts: spec.Restarts, Seed: spec.Seed,
		},
	}
	if spec.Store {
		// Attach a throwaway durable store so every window identification
		// also pays the WAL append — the with-durability variant the
		// overhead gate compares against the bare monitor spec.
		policy, err := store.ParseFsyncPolicy(spec.Fsync)
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "dclbench-monitor-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(store.Options{Dir: dir, Fsync: policy})
		if err != nil {
			return err
		}
		defer st.Close()
		mcfg.Store = st
	}
	if spec.Obs {
		logger, err := obs.NewLogger(io.Discard, slog.LevelInfo, "json")
		if err != nil {
			return err
		}
		mcfg.Logger = logger
	}
	mon := monitor.New(mcfg)
	// Build the per-session batches before the timed region: trace
	// generation is workload input, not monitor cost.
	batches := make([]*trace.Batch, spec.Sessions)
	for i := range batches {
		tr := DelayTrace(spec.TraceLen, spec.LossRate, spec.Seed+int64(i)*101)
		batches[i] = trace.BatchOfObservations(tr.Observations)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sessions := make([]*monitor.Session, spec.Sessions)
	for i := range sessions {
		s, _, err := mon.Open(fmt.Sprintf("bench-path-%d", i), nil)
		if err != nil {
			return err
		}
		sessions[i] = s
		if _, err := s.OfferBatch(batches[i]); err != nil {
			return err
		}
	}
	for _, s := range sessions {
		s.Drain()
	}
	for _, s := range sessions {
		if err := s.Wait(ctx); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	defer mon.Close(context.Background())

	ls := mon.LatencyStats()
	n := ls.Observations()
	if n == 0 {
		return fmt.Errorf("monitor recorded no identifications")
	}
	res.Ops = int(n)
	res.NsPerOp = wall.Nanoseconds() / n
	res.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / n
	res.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / n
	res.FitsPerSec = float64(n) / wall.Seconds()
	res.P50Ms = ls.QuantileMS(0.50)
	res.P99Ms = ls.QuantileMS(0.99)
	return nil
}

// percentilesMS returns the p50 and p99 of the latencies in milliseconds
// (nearest-rank on a sorted copy).
func percentilesMS(lat []time.Duration) (p50, p99 float64) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) float64 {
		i := int(q*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return float64(s[i]) / float64(time.Millisecond)
	}
	return rank(0.50), rank(0.99)
}
