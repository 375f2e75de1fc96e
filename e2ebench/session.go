package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// options are the benchmark's command-line settings.
type options struct {
	bin     string // dclserved binary under test
	work    string // scratch directory for stores and logs
	wl      workload
	seed    int64
	seconds float64
}

// sessionConfig shapes one daemon lifetime of a run.
type sessionConfig struct {
	name    string // subdirectory of the work directory
	traced  bool   // -log-format json -trace-sample 1, window_done parsed
	workers int    // -workers; 0 = the daemon's default
	setups  int    // daemon starts; all but the last are stopped again
	paced   int    // paced windows per path; 0 = no paced phase
	flood   int    // flood windows per path; 0 = no flood phase
}

// session is one daemon lifetime: set-up, warm-up, rounds of a paced and
// a flood phase, then the output checks.
type session struct {
	opt  options
	cfg  sessionConfig
	plan *plan
	dir  string
	d    *daemon
	c    *client
	feed []*feed

	ops opCount

	setupS []float64 // child exec -> ready -> every session PUT
	probes []float64 // host memory probe before the rounds and after each

	warm         phaseStats
	paced, flood []phaseStats // one of each per round
	replays      int          // recovered-path replays scheduled so far
	rssMiB       float64

	verdicts [][]verdict // per live path, as received
	windows  [][]wireWindow
}

// phaseStats is one phase's schedule and what it measured.
type phaseStats struct {
	k0, k1  int       // windows [k0, k1) of every path
	replies [][]reply // per lane
	lanes   [][]request
	// firstSent and lastVerdict bound the flood's throughput interval.
	firstSent, lastVerdict time.Time
	cpuMS                  float64 // daemon CPU across the phase
}

// opCount tallies the operations a run attempted and the ones that failed,
// keeping the first few failures' reasons for the log.
type opCount struct {
	attempted, failed int
	reasons           []string
}

func (o *opCount) add(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.reasons) < 10 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

func (o *opCount) merge(p opCount) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, r := range p.reasons {
		if len(o.reasons) < 10 {
			o.reasons = append(o.reasons, r)
		}
	}
}

// daemonArgs are the flags of the daemon under test: the paper's defaults
// with the durable store on, the workload's window shape, and a queue
// that holds the largest backlog a phase posts, so no POST is ever
// answered 429.
func (s *session) daemonArgs() []string {
	wl := s.opt.wl
	backlog := max(s.plan.warm, (s.plan.flood+rounds-1)/rounds) + 2 // windows
	queue := backlog*wl.stride + wl.window
	args := []string{
		"-store-dir", filepath.Join(s.dir, "store"), "-fsync", "interval",
		"-window", strconv.Itoa(wl.window), "-stride", strconv.Itoa(wl.stride),
		"-gate=" + strconv.FormatBool(wl.gate), "-queue", strconv.Itoa(queue),
	}
	if s.cfg.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(s.cfg.workers))
	}
	if s.cfg.traced {
		return append(args, "-log-level", "info", "-log-format", "json", "-trace-sample", "1")
	}
	return append(args, "-log-level", "warn")
}

func (s *session) logPath() string { return filepath.Join(s.dir, "daemon.log") }

// runSession runs one daemon lifetime. An error means the benchmark could
// not run at all; everything the daemon got wrong is counted in s.ops.
func runSession(opt options, cfg sessionConfig) (*session, error) {
	p, err := newPlan(opt.wl, opt.seed, cfg.paced, cfg.flood)
	if err != nil {
		return nil, err
	}
	s := &session{opt: opt, cfg: cfg, plan: p, dir: filepath.Join(opt.work, cfg.name)}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if len(p.recovered) > 0 {
		if err := writeRecoveredWAL(filepath.Join(s.dir, "store"), p); err != nil {
			return nil, fmt.Errorf("writing the recovered WAL: %w", err)
		}
	}
	if err := s.setUp(); err != nil {
		return nil, err
	}
	err = s.drive()
	if err != nil {
		s.d.kill()
		for _, f := range s.feed {
			f.close()
		}
		s.c.close()
		return nil, err
	}
	s.check()
	return s, nil
}

// setUp starts the daemon cfg.setups times, timing each start from exec
// to the last session PUT; the last daemon stays up.
func (s *session) setUp() error {
	ids := append(append([]string(nil), s.plan.recovered...), s.liveIDs()...)
	for i := 0; i < s.cfg.setups; i++ {
		t0 := time.Now()
		d, err := startDaemon(s.opt.bin, s.logPath(), s.daemonArgs())
		if err != nil {
			return err
		}
		c := newClient(d.base)
		if err := d.waitReady(c.http, 30*time.Second); err != nil {
			d.kill()
			return err
		}
		for _, id := range ids {
			rep := c.do(http.MethodPut, "/v1/paths/"+id, "", nil)
			s.ops.add(rep.ok(), "PUT %s: status %d %v", id, rep.status, rep.err)
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		if i == s.cfg.setups-1 {
			s.d, s.c = d, c
			break
		}
		c.close()
		if err := d.stop(30 * time.Second); err != nil {
			return fmt.Errorf("stopping set-up daemon %d: %w", i, err)
		}
	}
	for _, id := range s.liveIDs() {
		f, err := s.c.subscribe(id)
		if err != nil {
			s.d.kill()
			return err
		}
		s.feed = append(s.feed, f)
	}
	return nil
}

func (s *session) liveIDs() []string {
	ids := make([]string, len(s.plan.paths))
	for i, pp := range s.plan.paths {
		ids[i] = pp.id
	}
	return ids
}

// verdictTimeout bounds the wait for a phase's last verdicts.
const verdictTimeout = 60 * time.Second

// rounds is how many paced+flood rounds a run interleaves. Host slow
// phases last seconds, so spreading both phases over the whole run keeps
// one slow stretch from landing on one metric only.
const rounds = 5

// drive runs the warm-up and the timed rounds, then stops the daemon.
func (s *session) drive() error {
	p := s.plan
	s.probes = append(s.probes, memProbeMS())
	s.warm = s.backlog(0, p.warm)
	s.warm.replies = s.runLanes(s.warm.lanes)
	s.awaitVerdicts(p.warm)

	k := p.warm
	for r := 0; r < rounds; r++ {
		if n := p.paced*(r+1)/rounds - p.paced*r/rounds; n > 0 {
			s.paced = append(s.paced, s.pacedPhase(k, k+n))
			k += n
		}
		if n := p.flood*(r+1)/rounds - p.flood*r/rounds; n > 0 {
			ph, err := s.floodPhase(k, k+n)
			if err != nil {
				return err
			}
			s.flood = append(s.flood, ph)
			k += n
		}
		s.probes = append(s.probes, memProbeMS())
	}
	rss, err := s.d.peakRSSMiB()
	if err != nil {
		return err
	}
	s.rssMiB = rss
	// Draining flushes any partial tail window; the feeds stay open to
	// receive it and end when the daemon closes them.
	s.c.close()
	if err := s.d.stop(60 * time.Second); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	for i, f := range s.feed {
		f.close()
		if f.err != nil {
			s.ops.add(false, "events of %s: %v", p.paths[i].id, f.err)
		}
		s.verdicts = append(s.verdicts, f.verdicts())
	}
	return nil
}

// backlog schedules every POST of windows [k0, k1) at once, one lane per
// path: the flood shape.
func (s *session) backlog(k0, k1 int) phaseStats {
	ph := phaseStats{k0: k0, k1: k1}
	lo, hi := s.plan.postRange(k0, k1)
	for i := range s.plan.paths {
		var lane []request
		for j := lo; j < hi; j++ {
			lane = append(lane, request{path: i, post: j})
		}
		ph.lanes = append(ph.lanes, lane)
	}
	return ph
}

// floodPhase posts windows [k0, k1) as fast as the in-flight bound
// allows and waits for their verdicts, reading the daemon's CPU time
// around it.
func (s *session) floodPhase(k0, k1 int) (phaseStats, error) {
	ph := s.backlog(k0, k1)
	cpu0, err := s.d.cpuMS()
	if err != nil {
		return ph, err
	}
	timing.Store(true)
	ph.replies = s.runLanes(ph.lanes)
	s.awaitVerdicts(k1)
	timing.Store(false)
	cpu1, err := s.d.cpuMS()
	if err != nil {
		return ph, err
	}
	ph.cpuMS = cpu1 - cpu0
	ph.firstSent, ph.lastVerdict = s.phaseBounds(ph)
	return ph, nil
}

// pacedPhase posts windows [k0, k1) at the workload's fixed rate, the two
// paths half an interval apart, with replay GETs of the recovered paths
// on a lane of their own.
func (s *session) pacedPhase(k0, k1 int) phaseStats {
	wl := s.opt.wl
	ph := phaseStats{k0: k0, k1: k1}
	lo, hi := s.plan.postRange(k0, k1)
	// Each POST carries post/stride of a window's worth of new data.
	interval := time.Duration(float64(time.Second) * float64(livePaths) * float64(wl.post) / (float64(wl.stride) * wl.pacedRate))
	for i := range s.plan.paths {
		var lane []request
		offset := time.Duration(i) * interval / livePaths
		for j := lo; j < hi; j++ {
			lane = append(lane, request{due: offset + time.Duration(j-lo)*interval, path: i, post: j})
		}
		ph.lanes = append(ph.lanes, lane)
	}
	if n := len(s.plan.recovered); n > 0 {
		length := time.Duration(hi-lo) * interval
		every := time.Duration(float64(time.Second) / wl.replayRate)
		var lane []request
		for t := every / 2; t < length; t += every {
			// A recovered path's history never changes: after the first
			// read of each, compare the multi-MiB replies by digest.
			lane = append(lane, request{due: t, post: -1, replay: s.plan.recovered[s.replays%n], digestOnly: s.replays >= n})
			s.replays++
		}
		ph.lanes = append(ph.lanes, lane)
	}
	timing.Store(true)
	ph.replies = s.runLanes(ph.lanes)
	s.awaitVerdicts(k1)
	timing.Store(false)
	return ph
}

// awaitVerdicts waits until every path has delivered windows [0, n).
func (s *session) awaitVerdicts(n int) {
	deadline := time.Now().Add(verdictTimeout)
	for _, f := range s.feed {
		f.waitFor(n, deadline)
	}
}

// phaseBounds returns the phase's first request send and its last verdict
// arrival.
func (s *session) phaseBounds(ph phaseStats) (first, last time.Time) {
	for _, lane := range ph.replies {
		for _, rep := range lane {
			if first.IsZero() || rep.sent.Before(first) {
				first = rep.sent
			}
		}
	}
	for _, f := range s.feed {
		for _, v := range f.verdicts() {
			if v.index >= ph.k0 && v.index < ph.k1 && v.arrived.After(last) {
				last = v.arrived
			}
		}
	}
	return first, last
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
