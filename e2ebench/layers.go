package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/mmhd"
	"dominantlink/internal/stats"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// The per-layer costs below are timed in the benchmark's own process,
// around calls into each layer's public entry point, on the workload's
// own input. They run after the daemon has stopped, one at a time.

// probeBytes is the host memory probe's working set: the size of this
// host's per-core L2, so it moves with the cache contention that slows EM.
const probeBytes = 4 << 20

var (
	probeOnce  sync.Once
	probeCycle []uint32
)

// memProbeMS times a random pointer chase over a probeBytes buffer: a
// host-phase indicator that moves with cache and memory contention from
// neighbours, recorded next to the run's numbers.
func memProbeMS() float64 {
	probeOnce.Do(func() {
		// Sattolo's algorithm: one cycle through every slot.
		n := probeBytes / 4
		probeCycle = make([]uint32, n)
		for i := range probeCycle {
			probeCycle[i] = uint32(i)
		}
		rng := stats.NewRNG(1)
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i)
			probeCycle[i], probeCycle[j] = probeCycle[j], probeCycle[i]
		}
	})
	t0 := time.Now()
	at := uint32(0)
	for i := 0; i < 1<<20; i++ {
		at = probeCycle[at]
	}
	probeSink = at
	return ms(time.Since(t0))
}

var probeSink uint32

// layerSample bounds how many windows each per-layer timing uses.
const layerSample = 6

// sampleWindows returns up to layerSample admitted full windows.
func sampleWindows(p *plan) [][]trace.Observation {
	var out [][]trace.Observation
	for k := 0; k < p.windows() && len(out) < layerSample; k++ {
		for i, pp := range p.paths {
			if pp.admit[k] && len(out) < layerSample {
				out = append(out, p.window(i, k))
			}
		}
	}
	return out
}

// gateMS is the median core.StationarityCheck time per window.
func gateMS(p *plan) float64 {
	var lat []float64
	for i := range p.paths {
		for k := 0; k < p.windows(); k++ {
			tr := &trace.Trace{Observations: p.window(i, k)}
			t0 := time.Now()
			core.StationarityCheck(tr, core.StationarityConfig{})
			lat = append(lat, ms(time.Since(t0)))
		}
	}
	return median(lat)
}

var errNoEM = errors.New("identification skipped: windower timing")

// windowerMS streams every live path through core.Windower.Stream with
// the workload's window shape and an identify hook that fails at once,
// so only ingest, cut, gate and ordering run. It returns the median
// total over three passes and the number of windows the gate admitted.
func windowerMS(p *plan) (float64, int) {
	engine := core.NewEngine(0)
	engine.SetIdentifyHook(func(context.Context) error { return errNoEM })
	w := core.NewWindower(engine, core.WindowConfig{
		Size: p.wl.window, Stride: p.wl.stride, DisableGate: !p.wl.gate,
	})
	var passes []float64
	admitted := 0
	for pass := 0; pass < 3; pass++ {
		admitted = 0
		t0 := time.Now()
		for _, pp := range p.paths {
			ch, err := w.Stream(context.Background(), trace.NewSliceSource(pp.obs), identifyConfig())
			if err != nil {
				return 0, 0
			}
			for res := range ch {
				if res.Admitted {
					admitted++
				}
			}
		}
		passes = append(passes, ms(time.Since(t0)))
	}
	return median(passes), admitted
}

// emStats times mmhd.FitWithScratch per restart and core.IdentifyContext
// per window on sampled windows, with the daemon's configuration.
func emStats(p *plan) (fitP50, identifyP50 float64) {
	cfg := identifyConfig()
	cfg.Parallelism = 1
	sc := mmhd.NewScratch()
	var fits, ids []float64
	for _, obs := range sampleWindows(p) {
		disc, err := core.NewDiscretization(obs, cfg.Symbols, 0)
		if err != nil {
			continue
		}
		enc := disc.Encode(obs)
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			_, _, err := mmhd.FitWithScratch(enc, mmhd.Config{
				HiddenStates: cfg.HiddenStates, Symbols: cfg.Symbols,
				Seed: stats.RestartSeed(cfg.Seed, r), PerStateLoss: true,
			}, sc)
			if err == nil {
				fits = append(fits, ms(time.Since(t0)))
			}
		}
		t0 := time.Now()
		if _, err := core.IdentifyContext(context.Background(), &trace.Trace{Observations: obs}, cfg); err == nil {
			ids = append(ids, ms(time.Since(t0)))
		}
	}
	return median(fits), median(ids)
}

// storeStats times the store layer on the session's own store directory
// (the daemon has stopped and closed it): store.Open plus Log for every
// path, and Log.Scan since 0 of every path, as medians per path in ms;
// then the median Log.Append cost in µs over 20 batches of 1000 records
// into a fresh store.
func storeStats(s *session) (reopenMS, scanMS, appendUS float64, err error) {
	dir := filepath.Join(s.dir, "store")
	ids := append(append([]string(nil), s.plan.recovered...), s.liveIDs()...)
	var reopen, scan []float64
	for _, id := range ids {
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			return 0, 0, 0, err
		}
		l, err := st.Log(id)
		if err != nil {
			st.Close()
			return 0, 0, 0, err
		}
		reopen = append(reopen, ms(time.Since(t0)))
		t0 = time.Now()
		err = l.Scan(0, func(store.Record) error { return nil })
		scan = append(scan, ms(time.Since(t0)))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}

	fresh := filepath.Join(s.dir, "append-bench")
	defer os.RemoveAll(fresh)
	st, err := store.Open(store.Options{Dir: fresh, Fsync: store.FsyncInterval})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	l, err := st.Log("append")
	if err != nil {
		return 0, 0, 0, err
	}
	rng := stats.NewRNG(s.plan.seed)
	var batches []float64
	for b := 0; b < 20; b++ {
		recs := make([]store.Record, 1000)
		for i := range recs {
			recs[i] = store.Record{Kind: store.KindWindow, Window: recoveredWindow(rng, b*1000+i, s.opt.wl.window)}
		}
		t0 := time.Now()
		for i := range recs {
			if err := l.Append(&recs[i]); err != nil {
				return 0, 0, 0, err
			}
		}
		batches = append(batches, float64(time.Since(t0).Microseconds())/float64(len(recs)))
	}
	return median(reopen), median(scan), median(batches), nil
}

// sseEncodeUS is the mean json.Marshal cost of the wire window, in µs,
// over the session's decoded verdicts (repeated until 50 ms have passed).
func sseEncodeUS(s *session) float64 {
	var all []wireWindow
	for _, ws := range s.windows {
		all = append(all, ws...)
	}
	if len(all) == 0 {
		return 0
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for i := range all {
			if _, err := json.Marshal(&all[i]); err != nil {
				return 0
			}
		}
		n += len(all)
	}
	return float64(time.Since(t0).Microseconds()) / float64(n)
}
