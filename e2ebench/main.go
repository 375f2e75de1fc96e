// Command e2ebench is the repository's end-to-end benchmark: it drives a
// real dclserved child over loopback HTTP, from POST /observations to the
// verdict on the SSE feed and in the WAL, and splits a verdict's time by
// layer. Run it through run.sh, which builds both from the source tree:
//
//	bash e2ebench/run.sh --workload tumbling-dcl --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics and a per-stage self-time
// table. --steady k runs the workload k times with successive seeds and
// prints each metric's median and quartile spread. The last line of
// standard output is the JSON result; progress and tables go to stderr.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's JSON output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: tumbling-dcl, sliding-dcl or flap-replay")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same request bodies")
		seconds = flag.Float64("seconds", 30, "measured seconds of one run")
		traced  = flag.Int("trace", 0, "1 = the traced run, reporting per-layer metrics")
		bin     = flag.String("daemon", "", "dclserved binary under test")
		work    = flag.String("work", "", "scratch directory for stores and logs")
		steady  = flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report each metric's spread")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	wl, err := findWorkload(*name)
	if err == nil && (*bin == "" || *work == "") {
		err = errors.New("-daemon and -work are required (run through run.sh)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadyReport(*steady); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	opt := options{bin: *bin, work: *work, wl: wl, seed: *seed, seconds: *seconds}
	var res *result
	if *traced == 1 {
		res, err = runTraced(opt)
	} else {
		res, err = runE2E(opt)
	}
	if err == nil {
		for k, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				err = fmt.Errorf("metric %s has no value", k)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runE2E is the untraced run: eleven timed daemon start-ups, then paced
// phases worth two thirds of the run interleaved with the flood.
func runE2E(opt options) (*result, error) {
	wl := opt.wl
	s, err := runSession(opt, sessionConfig{
		name: "e2e", setups: 11,
		paced: wl.pacedWindows(2*opt.seconds/3, minPacedVerdicts),
		flood: wl.floodBacklog(1),
	})
	if err != nil {
		return nil, err
	}
	s.checkClient()
	lat := s.pacedLatencies()
	p90, ok := percentile(lat, 0.9)
	if !ok {
		return nil, fmt.Errorf("%d paced verdicts are too few for a p90", len(lat))
	}
	m := map[string]metric{
		"verdict_p50_ms": {median(lat), "ms"},
		"verdict_p90_ms": {p90, "ms"},
		"windows_per_s":  {s.floodRate(), "1/s"},
		"setup_s":        {median(s.setupS), "s"},
		"replay_p50_ms":  {median(s.replayLatencies()), "ms"},
		"peak_rss_mb":    {s.rssMiB, "MiB"},
	}
	s.logSummary(lat)
	return s.result(m), nil
}

// runTraced is the traced run. Three daemon lifetimes: an untraced paced
// phase (the overhead baseline), a traced paced phase plus half a flood
// at the default worker count, and half a flood at -workers 1 for the
// scaling efficiency. The per-layer timings follow, on the traced
// session's input and store.
func runTraced(opt options) (*result, error) {
	wl := opt.wl
	third := opt.seconds / 3
	base, err := runSession(opt, sessionConfig{
		name: "untraced", setups: 1,
		paced: wl.pacedWindows(third, 0),
	})
	if err != nil {
		return nil, err
	}
	tr, err := runSession(opt, sessionConfig{
		name: "traced", traced: true, setups: 1,
		paced: wl.pacedWindows(third, 0), flood: wl.floodBacklog(0.5),
	})
	if err != nil {
		return nil, err
	}
	one, err := runSession(opt, sessionConfig{
		name: "workers1", traced: true, workers: 1, setups: 1,
		flood: wl.floodBacklog(0.5),
	})
	if err != nil {
		return nil, err
	}
	for _, s := range []*session{base, tr, one} {
		s.checkClient()
	}

	wd, err := readWindowDone(tr.logPath())
	if err != nil {
		return nil, err
	}
	var rec recorder
	for _, ph := range tr.paced {
		tr.verdictSpans(ph, wd, &rec)
	}
	pacedSpans := len(rec.spans)
	for _, ph := range tr.flood {
		tr.verdictSpans(ph, wd, &rec)
	}
	self := selfTimes(rec.spans)
	if err := rec.writeFile(filepath.Join(tr.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	paced := stageTable(rec.spans[:pacedSpans], self[:pacedSpans])
	printStageTable(os.Stderr, fmt.Sprintf("%s traced paced phase: per-stage time per verdict", wl.name), paced)
	printStageTable(os.Stderr, fmt.Sprintf("%s traced flood phase", wl.name), stageTable(rec.spans[pacedSpans:], self[pacedSpans:]))

	baseP50 := median(base.pacedLatencies())
	trP50 := median(tr.pacedLatencies())
	overhead := 100 * (trP50 - baseP50) / baseP50
	fitShare := shareOf(paced, "em.fit")
	fmt.Fprintf(os.Stderr, "trace.overhead_pct %.1f (verdict p50 %.2f ms traced vs %.2f ms untraced)\n", overhead, trP50, baseP50)
	fmt.Fprintf(os.Stderr, "EM (em.fit) is %.1f%% of a paced verdict on %s\n", 100*fitShare, wl.name)
	crossCheck(wd, tr)

	var enqWait, dispatch []float64
	for _, d := range wd {
		enqWait = append(enqWait, d.EnqueueWait)
		dispatch = append(dispatch, d.Dispatch)
	}
	var postMS []float64
	for _, rep := range tr.pacedReplies(true) {
		postMS = append(postMS, ms(rep.done.Sub(rep.sent)))
	}
	var iters []float64
	for _, ws := range tr.windows {
		for _, w := range ws {
			if w.Admitted && !w.Partial && w.EMIterations > 0 {
				iters = append(iters, float64(w.EMIterations))
			}
		}
	}
	if len(iters) == 0 {
		iters = []float64{0} // no window reached EM
	}
	windowerMS, admitted := windowerMS(tr.plan)
	fitP50, idP50 := emStats(tr.plan)
	reopenMS, scanMS, appendUS, err := storeStats(tr)
	if err != nil {
		return nil, err
	}
	var probes []float64
	for _, s := range []*session{base, tr, one} {
		probes = append(probes, s.probes...)
	}
	var bodyBytes, obs float64
	for _, pp := range tr.plan.paths {
		for _, b := range pp.bodies {
			bodyBytes += float64(len(b))
		}
		obs += float64(len(pp.obs))
	}

	m := map[string]metric{
		"http.post_p50_ms":         {median(postMS), "ms"},
		"http.post_bytes_per_obs":  {bodyBytes / obs, "B/obs"},
		"http.non2xx":              {float64(base.c.non2xx.Load() + tr.c.non2xx.Load() + one.c.non2xx.Load()), "count"},
		"trace.enqueue_wait_ms":    {median(enqWait), "ms"},
		"trace.dispatch_ms":        {median(dispatch), "ms"},
		"core.gate_ms":             {gateMS(tr.plan), "ms"},
		"core.windower_ms":         {windowerMS, "ms"},
		"core.windows_admitted":    {float64(admitted), "count"},
		"em.fit_p50_ms":            {fitP50, "ms"},
		"em.iters_per_window":      {median(iters), "count"},
		"core.identify_p50_ms":     {idP50, "ms"},
		"trace.fit_share":          {fitShare, "ratio"},
		"store.append_us":          {appendUS, "us"},
		"store.reopen_ms":          {reopenMS, "ms"},
		"store.scan_ms":            {scanMS, "ms"},
		"sse.encode_us":            {sseEncodeUS(tr), "us"},
		"trace.fanout_ms":          {medianDur(rec.spans[:pacedSpans], "fanout"), "ms"},
		"daemon.cpu_ms_per_window": {tr.floodCPUMS() / float64(tr.plan.flood*livePaths), "ms"},
		"engine.scaling_eff":       {tr.floodRate() / (2 * one.floodRate()), "ratio"},
		"host.mem_probe_ms":        {median(probes), "ms"},
		"gen.late_p90_ms":          {tr.lateP90(), "ms"},
		"trace.overhead_pct":       {overhead, "%"},
	}
	tr.ops.merge(base.ops)
	tr.ops.merge(one.ops)
	return tr.result(m), nil
}

// checkClient counts a breach of the generator's in-flight bound as a
// failed operation.
func (s *session) checkClient() {
	n := s.c.maxInFlight.Load()
	s.ops.add(n <= maxInFlight, "%d requests were in flight at once (bound %d)", n, maxInFlight)
}

// pacedLatencies are the verdict latencies of every paced phase.
func (s *session) pacedLatencies() []float64 {
	var out []float64
	for _, ph := range s.paced {
		out = append(out, s.verdictLatencies(ph)...)
	}
	return out
}

// pacedReplies returns the replies of the paced phases' POSTs, or with
// posts false of their replay GETs.
func (s *session) pacedReplies(posts bool) []reply {
	var out []reply
	for _, ph := range s.paced {
		for li, lane := range ph.lanes {
			for j, rq := range lane {
				if (rq.post >= 0) == posts {
					out = append(out, ph.replies[li][j])
				}
			}
		}
	}
	return out
}

// replayLatencies are the paced phases' replay GET times.
func (s *session) replayLatencies() []float64 {
	var out []float64
	for _, rep := range s.pacedReplies(false) {
		out = append(out, ms(rep.done.Sub(rep.sent)))
	}
	return out
}

// lateP90 is the generator's p90 lateness over the paced POSTs: how long
// after its due time a POST went out.
func (s *session) lateP90() float64 {
	var late []float64
	for _, rep := range s.pacedReplies(true) {
		late = append(late, ms(rep.sent.Sub(rep.due)))
	}
	p, _ := percentile(late, 0.9)
	return p
}

// floodRate is the flood phases' verdicts over their summed spans, each
// from first POST to last verdict.
func (s *session) floodRate() float64 {
	windows, secs := 0, 0.0
	for _, ph := range s.flood {
		windows += (ph.k1 - ph.k0) * livePaths
		secs += ph.lastVerdict.Sub(ph.firstSent).Seconds()
	}
	return float64(windows) / secs
}

// floodCPUMS is the daemon's CPU time across the flood phases.
func (s *session) floodCPUMS() float64 {
	sum := 0.0
	for _, ph := range s.flood {
		sum += ph.cpuMS
	}
	return sum
}

// result assembles the JSON result and logs any failures.
func (s *session) result(m map[string]metric) *result {
	for _, r := range s.ops.reasons {
		fmt.Fprintln(os.Stderr, "failed:", r)
	}
	return &result{Correct: s.ops.failed == 0, Attempted: s.ops.attempted, Failed: s.ops.failed, Metrics: m}
}

// logSummary writes a one-run summary to stderr: the host probes (a slow
// host phase shows here), the EM work the seed's data asked for,
// generator lateness and the verdict count.
func (s *session) logSummary(lat []float64) {
	var iters []float64
	for _, ws := range s.windows {
		for _, w := range ws {
			if w.EMIterations > 0 {
				iters = append(iters, float64(w.EMIterations))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d paced verdicts, flood %.2f windows/s, EM iterations p50 %.1f, gen.late_p90_ms %.3f, host.mem_probe_ms %v, setups %v s\n",
		s.opt.wl.name, s.opt.seed, len(lat), s.floodRate(), median(iters), s.lateP90(), roundAll(s.probes), roundAll(s.setupS))
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// shareOf returns the share of the named stage in a stage table.
func shareOf(rows []stageRow, name string) float64 {
	for _, r := range rows {
		if r.name == name {
			return r.share
		}
	}
	return 0
}

// medianDur is the median duration in ms of the spans with the name.
func medianDur(spans []span, name string) float64 {
	var d []float64
	for _, sp := range spans {
		if sp.Name == name {
			d = append(d, float64(sp.dur())/1e6)
		}
	}
	return median(d)
}

// crossCheck prints the daemon's own window_done accounting next to the
// verdicts the benchmark timed, so a reader sees that the in-daemon
// stages fit inside the verdict and that total_ms matches the stages it
// sums.
func crossCheck(wd map[windowKey]windowDone, s *session) {
	var total, stages []float64
	for _, ph := range s.paced {
		for _, pp := range s.plan.paths {
			for k := ph.k0; k < ph.k1; k++ {
				if d, ok := wd[windowKey{pp.id, k}]; ok {
					total = append(total, d.Total)
					stages = append(stages, d.EnqueueWait+d.Dispatch+d.Fit+d.Append)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "window_done cross-check, paced phases: %d of %d lines, total_ms p50 %.3f, stage sum p50 %.3f, verdict p50 %.3f ms\n",
		len(total), len(wd), median(total), median(stages), median(s.pacedLatencies()))
}

// steadyReport re-runs this benchmark k times with successive seeds and
// prints every metric's median, quartiles and quartile spread as a share
// of the median: the steadiness evidence for the benchmark's bounds.
func steadyReport(k int) error {
	var args []string
	seed := int64(1)
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "steady":
		case "seed":
			seed, _ = strconv.ParseInt(f.Value.String(), 10, 64)
		default:
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < k; i++ {
		cmd := exec.Command(os.Args[0], append(args, "-seed", strconv.FormatInt(seed+int64(i), 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct {
			failed++
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", i+1, k, lastLine(out))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-26s %6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		fmt.Printf("%-26s %6s %12.4f %12.4f %12.4f %7.2f%%\n", name, units[name], q1, q2, q3, 100*(q3-q1)/q2)
	}
	fmt.Printf("%d of %d runs reported incorrect output\n", failed, k)
	return nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
