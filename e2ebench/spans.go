package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a verdict's life, recorded by the
// benchmark around the calls it makes or read from the daemon's
// window_done log line. Spans of one verdict share Path and Window;
// Parent indexes the enclosing span (-1 for a verdict root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Parent int    `json:"parent"`
	Path   string `json:"path"`
	Window int    `json:"window"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct{ spans []span }

func (r *recorder) add(name string, start, end time.Time, parent int, path string, window int) int {
	r.spans = append(r.spans, span{Name: name, Start: start.UnixNano(), End: end.UnixNano(),
		Parent: parent, Path: path, Window: window})
	return len(r.spans) - 1
}

// writeFile dumps the spans to a file as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children clipped to the parent,
// overlaps between children counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, sp.Start), min(spans[c].End, sp.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = math.MinInt64
		for _, v := range ivs {
			if v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = sp.dur() - covered
	}
	return self
}

// stageRow is one line of the per-stage table.
type stageRow struct {
	name   string
	n      int
	p50ms  float64 // median duration
	selfms float64 // median self time
	share  float64 // summed self time over summed verdict time
}

// stageTable summarizes spans by name. A share is the stage's summed self
// time over the summed verdict time. Children of one verdict may overlap
// (the POST round trip overlaps the daemon's queue wait), so child shares
// can add up past 100%; the verdict row's share is the time no stage
// covers.
func stageTable(spans []span, self []int64) []stageRow {
	var rootTotal int64
	order := []string{}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	sums := map[string]int64{}
	for i, sp := range spans {
		if sp.Parent < 0 {
			rootTotal += sp.dur()
		}
		if _, ok := durs[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e6)
		selfs[sp.Name] = append(selfs[sp.Name], float64(self[i])/1e6)
		sums[sp.Name] += self[i]
	}
	rows := make([]stageRow, 0, len(order))
	for _, name := range order {
		row := stageRow{name: name, n: len(durs[name]), p50ms: median(durs[name]), selfms: median(selfs[name])}
		if rootTotal > 0 {
			row.share = float64(sums[name]) / float64(rootTotal)
		}
		rows = append(rows, row)
	}
	return rows
}

// printStageTable writes the per-stage self-time table.
func printStageTable(w io.Writer, title string, rows []stageRow) {
	fmt.Fprintf(w, "%s\n%-14s %6s %10s %10s %8s\n", title, "stage", "n", "p50 ms", "self p50", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d %10.3f %10.3f %7.1f%%\n", r.name, r.n, r.p50ms, r.selfms, 100*r.share)
	}
}

// windowDone is the part of the daemon's window_done log line the
// benchmark reads: the emission time and the in-daemon stage durations.
type windowDone struct {
	Time        time.Time `json:"time"`
	Event       string    `json:"event"`
	Path        string    `json:"path"`
	Window      int       `json:"window"`
	EnqueueWait float64   `json:"enqueue_wait_ms"`
	Dispatch    float64   `json:"dispatch_ms"`
	Fit         float64   `json:"fit_ms"`
	Append      float64   `json:"append_ms"`
	Total       float64   `json:"total_ms"`
}

type windowKey struct {
	path   string
	window int
}

// readWindowDone collects the window_done lines of a JSON daemon log.
func readWindowDone(path string) (map[windowKey]windowDone, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[windowKey]windowDone)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var wd windowDone
		if json.Unmarshal(line, &wd) != nil || wd.Event != "window_done" {
			continue
		}
		out[windowKey{wd.Path, wd.Window}] = wd
	}
	return out, sc.Err()
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// verdictSpans records the spans of every verdict of a phase: the root
// from the completing POST's due time to the SSE arrival, the generator's
// lateness and the POST round trip, and the in-daemon stages laid out
// backwards from the window_done emission time (which follows the durable
// append and the fan-out hand-off by microseconds): ingest (POST sent
// until the windower holds the data: decode plus the session queue), the
// windower's wait for a worker slot, dispatch and gate, the EM fit, the
// append, and the fan-out to the SSE arrival.
func (s *session) verdictSpans(ph phaseStats, wd map[windowKey]windowDone, rec *recorder) {
	wl := s.opt.wl
	lo, _ := s.plan.postRange(ph.k0, ph.k1)
	for i, pp := range s.plan.paths {
		for k := ph.k0; k < ph.k1 && k < len(s.verdicts[i]); k++ {
			rep := ph.replies[i][wl.completingPost(k)-lo]
			v := s.verdicts[i][k]
			root := rec.add("verdict", rep.due, v.arrived, -1, pp.id, k)
			rec.add("gen.late", rep.due, rep.sent, root, pp.id, k)
			rec.add("http.post", rep.sent, rep.done, root, pp.id, k)
			d, ok := wd[windowKey{pp.id, k}]
			if !ok {
				continue
			}
			appended := d.Time
			fitDone := appended.Add(-msDur(d.Append))
			fitStart := fitDone.Add(-msDur(d.Fit))
			cut := fitStart.Add(-msDur(d.Dispatch))
			enq := cut.Add(-msDur(d.EnqueueWait))
			rec.add("ingest", rep.sent, enq, root, pp.id, k)
			rec.add("queue.wait", enq, cut, root, pp.id, k)
			rec.add("dispatch", cut, fitStart, root, pp.id, k)
			rec.add("em.fit", fitStart, fitDone, root, pp.id, k)
			rec.add("store.append", fitDone, appended, root, pp.id, k)
			rec.add("fanout", appended, v.arrived, root, pp.id, k)
		}
	}
}

// verdictLatencies returns the phase's verdict latencies in ms, from the
// completing POST's due time to the SSE arrival.
func (s *session) verdictLatencies(ph phaseStats) []float64 {
	wl := s.opt.wl
	lo, _ := s.plan.postRange(ph.k0, ph.k1)
	var out []float64
	for i := range s.plan.paths {
		for k := ph.k0; k < ph.k1 && k < len(s.verdicts[i]); k++ {
			rep := ph.replies[i][wl.completingPost(k)-lo]
			out = append(out, ms(s.verdicts[i][k].arrived.Sub(rep.due)))
		}
	}
	return out
}

// median returns the middle value (mean of the middle two), NaN if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it. ok is false unless at least ten
// samples lie beyond it, the least that makes a tail percentile mean
// something.
func percentile(v []float64, q float64) (p float64, ok bool) {
	if len(v) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
