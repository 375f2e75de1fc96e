package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strconv"
	"sync"

	"dominantlink/internal/core"
	"dominantlink/internal/stats"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// wireWindow is an SSE window event's payload: the durable window record
// stamped with its path.
type wireWindow struct {
	Path string `json:"path"`
	store.Window
}

// checkSample is how many admitted windows per path are re-identified
// one-shot and compared field by field.
const checkSample = 8

// check verifies everything the daemon returned, outside any timed
// region: every POST accepted whole, every expected verdict present, in
// order and consistent with its window and the gate's expected verdict, a
// seeded sample identical to a one-shot identification, the replays
// complete, and the WAL's window counter equal to the verdict count.
func (s *session) check() {
	p := s.plan
	for _, ph := range s.phases() {
		for li, lane := range ph.lanes {
			for j, rq := range lane {
				rep := ph.replies[li][j]
				if rq.post >= 0 {
					s.ops.add(postAccepted(rep, p.wl.post), "POST %s #%d: status %d %v", p.paths[rq.path].id, rq.post, rep.status, rep.err)
				} else {
					s.ops.add(s.recoveredReplayOK(rq.replay, rep), "replay GET %s: status %d %v", rq.replay, rep.status, rep.err)
				}
			}
		}
	}
	var sample []windowRef
	rng := stats.NewRNG(p.seed).Split(2000)
	for i, pp := range p.paths {
		got := s.verdicts[i]
		want := s.expectedWindows(i)
		decoded := make([]wireWindow, len(got))
		var admitted []int
		for k := 0; k < want || k < len(got); k++ {
			if k >= len(got) {
				s.ops.add(false, "%s: verdict %d missing", pp.id, k)
				continue
			}
			if k >= want {
				s.ops.add(false, "%s: unexpected verdict %d", pp.id, k)
				continue
			}
			var w wireWindow
			err := json.Unmarshal(got[k].data, &w)
			decoded[k] = w
			ok := err == nil && got[k].index == k && s.windowConsistent(i, k, w)
			s.ops.add(ok, "%s: verdict %d inconsistent (%v)", pp.id, k, err)
			if ok && w.Admitted && !w.Partial {
				admitted = append(admitted, k)
			}
		}
		s.windows = append(s.windows, decoded)
		for _, j := range rng.Perm(len(admitted)) {
			if len(sample) >= (i+1)*checkSample {
				break
			}
			sample = append(sample, windowRef{path: i, k: admitted[j]})
		}
	}
	for _, bad := range s.oneShotMismatches(sample) {
		s.ops.failed++
		if len(s.ops.reasons) < 10 {
			s.ops.reasons = append(s.ops.reasons, bad)
		}
	}
	s.checkWAL()
}

// expectedWindows is the number of verdicts path i must deliver: every
// complete window, plus the partial tail a drain flushes when windows
// overlap.
func (s *session) expectedWindows(i int) int {
	n := s.plan.windows()
	if len(s.plan.paths[i].obs) > n*s.opt.wl.stride {
		n++
	}
	return n
}

// windowConsistent checks one decoded verdict against the input.
func (s *session) windowConsistent(i, k int, w wireWindow) bool {
	p, wl := s.plan, s.opt.wl
	start := k * wl.stride
	end := start + wl.window
	partial := k >= p.windows()
	if partial {
		end = len(p.paths[i].obs)
	}
	if w.Path != p.paths[i].id || w.Window.Window != k || w.Start != start || w.End != end || w.Partial != partial {
		return false
	}
	if w.Shed || (w.Error != "" && !w.NoLosses) {
		return false // an error outcome
	}
	if !partial && w.Admitted != p.paths[i].admit[k] {
		return false
	}
	return !w.Admitted || w.Decided
}

// windowRef names window k of live path `path`.
type windowRef struct{ path, k int }

// oneShotMismatches re-identifies the sampled windows with a one-shot
// core.IdentifyContext, two at a time, and describes every field that
// differs from the daemon's verdict.
func (s *session) oneShotMismatches(sample []windowRef) []string {
	var (
		mu   sync.Mutex
		bad  []string
		wg   sync.WaitGroup
		next = make(chan windowRef)
	)
	cfg := identifyConfig()
	cfg.Parallelism = 1
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ref := range next {
				tr := &trace.Trace{Observations: s.plan.window(ref.path, ref.k)}
				id, err := core.IdentifyContext(context.Background(), tr, cfg)
				if msg := compareVerdict(s.windows[ref.path][ref.k], id, err); msg != "" {
					mu.Lock()
					bad = append(bad, s.plan.paths[ref.path].id+": "+msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, ref := range sample {
		s.ops.attempted++
		next <- ref
	}
	close(next)
	wg.Wait()
	return bad
}

// compareVerdict compares a daemon verdict with the one-shot outcome of
// the same observations: the tests' verdicts, the bound, the
// log-likelihood and the PMF must be identical.
func compareVerdict(w wireWindow, id *core.Identification, err error) string {
	switch {
	case errors.Is(err, core.ErrNoLosses):
		if !w.NoLosses {
			return "one-shot found no losses, daemon did not"
		}
		return ""
	case err != nil:
		return "one-shot failed: " + err.Error()
	}
	same := w.SDCL == id.SDCL.Accept && w.WDCL == id.WDCL.Accept &&
		w.BoundSeconds == id.BoundSeconds && w.LogLik == id.LogLik &&
		w.LossRate == id.LossRate && w.EMIterations == id.EMIterations &&
		len(w.PMF) == len(id.VirtualPMF)
	for m := 0; same && m < len(w.PMF); m++ {
		same = math.Float64bits(w.PMF[m]) == math.Float64bits(id.VirtualPMF[m])
	}
	if !same {
		return "window " + strconv.Itoa(w.Window.Window) + " differs from the one-shot identification"
	}
	return ""
}

// recoveredReplayOK checks a replay of a recovered path. The first reply
// of each path is decoded in full; every later one must match it byte
// for byte (by size and CRC).
func (s *session) recoveredReplayOK(id string, rep reply) bool {
	if !rep.ok() {
		return false
	}
	first := s.firstReplay(id)
	if first == nil || rep.size != first.size || rep.sum != first.sum {
		return false
	}
	if rep.body == nil {
		return true
	}
	var body struct {
		Next    int `json:"next"`
		Results []struct {
			Window int `json:"window"`
		} `json:"results"`
	}
	n := s.opt.wl.recoveredWindows
	if err := json.Unmarshal(rep.body, &body); err != nil || body.Next != n || len(body.Results) != n {
		return false
	}
	for k, w := range body.Results {
		if w.Window != k {
			return false
		}
	}
	return true
}

// firstReplay returns the full-body replay of a recovered path: its first
// read.
func (s *session) firstReplay(id string) *reply {
	for _, ph := range s.paced {
		for li, lane := range ph.lanes {
			for j, rq := range lane {
				if rq.post < 0 && rq.replay == id && !rq.digestOnly {
					return &ph.replies[li][j]
				}
			}
		}
	}
	return nil
}

// phases returns every phase of the session in run order.
func (s *session) phases() []*phaseStats {
	out := []*phaseStats{&s.warm}
	for i := range s.paced {
		out = append(out, &s.paced[i])
		if i < len(s.flood) {
			out = append(out, &s.flood[i])
		}
	}
	for i := len(s.paced); i < len(s.flood); i++ {
		out = append(out, &s.flood[i])
	}
	return out
}

// checkWAL reopens the stopped daemon's store read-only: each live path's
// persisted window counter must equal its verdict count, and each
// recovered path must still hold all its windows.
func (s *session) checkWAL() {
	st, err := store.Open(store.Options{Dir: filepath.Join(s.dir, "store"), ReadOnly: true})
	if err != nil {
		s.ops.add(false, "reopening the store: %v", err)
		return
	}
	defer st.Close()
	want := map[string]int{}
	for i, pp := range s.plan.paths {
		want[pp.id] = len(s.verdicts[i])
	}
	for _, id := range s.plan.recovered {
		want[id] = s.opt.wl.recoveredWindows
	}
	for id, n := range want {
		l, err := st.Log(id)
		ok := err == nil && l.NextIndex() == int64(n)
		s.ops.add(ok, "WAL %s: next index differs from %d verdicts (%v)", id, n, err)
	}
}
