package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dominantlink/internal/store"
	"dominantlink/internal/testutil"
	"dominantlink/internal/trace"
)

// seedLog appends n hand-written window records, indices 0..n-1, to
// path id's durable log before any session owns it. Every fifth window
// carries a transition, followed by its transition record as
// Session.record writes it; mod, when non-nil, edits each window first.
func seedLog(t *testing.T, st *store.Store, id string, n int, mod func(*store.Window)) {
	t.Helper()
	l, err := st.Log(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w := store.Window{
			Window: i, Start: i * 200, End: (i + 1) * 200,
			StartTime: float64(i) * 4, EndTime: float64(i+1) * 4,
			Stationary: true, Admitted: true, Decided: true, HasDCL: i%2 == 0,
			LossRate: 0.0125, BoundSeconds: 0.0375, PMF: []float64{0.125, 0.25, 0.625},
			LogLik: -1234.5 - float64(i), EMIterations: 40 + i%7,
			Summary: fmt.Sprintf("window %d <summary> & more", i),
		}
		if i%5 == 3 {
			w.Transition = "dcl-onset"
		}
		if mod != nil {
			mod(&w)
		}
		if err := l.Append(&store.Record{Kind: store.KindWindow, Window: w}); err != nil {
			t.Fatal(err)
		}
		if w.Transition != "" {
			if err := l.Append(&store.Record{Kind: store.KindTransition, Window: w}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pathURL is the URL of one of a path's endpoints, escaping the id.
func pathURL(base, id, rest string) string {
	return base + "/v1/paths/" + url.PathEscape(id) + rest
}

// getBody fetches a URL and returns the status and the whole body.
func getBody(t *testing.T, client *http.Client, u string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	return resp.StatusCode, body
}

// TestReplayBytes pins the streamed /results reply to the bytes the
// collect-then-marshal reply wrote: json.Marshal of the four-key map
// built from Session.Results, plus a newline. The cases cover the ring
// alone, the disk alone, a query crossing the disk/ring boundary, since
// at and past next, an empty session, transition records in the log,
// and a path id and records that need HTML escaping. The SSE backfill of
// each query must emit the event sequence the Results loop emitted.
func TestReplayBytes(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const html = "a<b&c"
	seedLog(t, st, "mixed", 30, nil)
	seedLog(t, st, "disk", 12, nil)
	seedLog(t, st, html, 7, func(w *store.Window) { w.Error = "<script>&" })

	mon := New(Config{MaxResults: 4, Store: st, Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()
	for _, id := range []string{"mixed", "disk", html, "empty"} {
		if code, v := doJSON(t, client, "PUT", pathURL(srv.URL, id, ""), "application/json", shortWindows); code != http.StatusCreated {
			t.Fatalf("PUT %s = %d %v", id, code, v)
		}
	}
	// mixed: 30 disk records, then 6 live windows (30..35) of which the
	// ring keeps the last 4 (32..35).
	ingestAll(t, client, srv.URL, "mixed", idleTrace(1200))
	for _, id := range []string{"mixed", "disk", html, "empty"} {
		if code, v := doJSON(t, client, "DELETE", pathURL(srv.URL, id, ""), "", ""); code != http.StatusOK {
			t.Fatalf("DELETE %s = %d %v", id, code, v)
		}
	}

	cases := []struct {
		name  string
		id    string
		since int
		want  int // expected result count
	}{
		{"ring only", "mixed", 33, 3},
		{"whole ring", "mixed", 32, 4},
		{"disk and ring", "mixed", 0, 36},
		{"across the boundary", "mixed", 29, 7},
		{"disk only", "disk", 0, 12},
		{"disk tail", "disk", 9, 3},
		{"since at next", "mixed", 36, 0},
		{"since past next", "mixed", 1000, 0},
		{"empty session", "empty", 0, 0},
		{"html escaping", html, 2, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ok := mon.Session(tc.id)
			if !ok {
				t.Fatalf("no session %q", tc.id)
			}
			results, next := s.Results(tc.since)
			if len(results) != tc.want {
				t.Fatalf("Results(%d) = %d windows, want %d", tc.since, len(results), tc.want)
			}
			for i, w := range results {
				if w.Window != tc.since+i {
					t.Fatalf("result %d is window %d, want %d", i, w.Window, tc.since+i)
				}
			}
			want := append(mustJSON(map[string]any{
				"next": next, "path": s.ID(), "results": results, "state": s.State().String(),
			}), '\n')
			code, got := getBody(t, client, pathURL(srv.URL, tc.id, "/results?since="+strconv.Itoa(tc.since)))
			if code != http.StatusOK {
				t.Fatalf("GET = %d %s", code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed body differs from the marshalled map:\n got %s\nwant %s", got, want)
			}

			// The SSE backfill from Last-Event-ID since-1 replays the same
			// windows as the event sequence the Results loop emitted.
			var wantEv []sseIDEvent
			for _, wj := range results {
				data := string(mustJSON(eventJSON{Path: s.ID(), WindowJSON: wj}))
				wantEv = append(wantEv, sseIDEvent{id: wj.Window, typ: "window", data: data})
				if wj.Transition != "" {
					wantEv = append(wantEv, sseIDEvent{id: wj.Window, typ: "transition", data: data})
				}
			}
			if tc.since == 0 {
				return // Last-Event-ID cannot ask for a replay from 0
			}
			req, _ := http.NewRequest("GET", pathURL(srv.URL, tc.id, "/events"), nil)
			req.Header.Set("Last-Event-ID", strconv.Itoa(tc.since-1))
			events := readSSE(t, client, req)
			if len(events) != len(wantEv)+1 || events[len(events)-1].typ != "closed" {
				t.Fatalf("SSE sent %d events, want %d backfilled then closed", len(events), len(wantEv))
			}
			for i, ev := range wantEv {
				if events[i] != ev {
					t.Fatalf("SSE event %d = %+v, want %+v", i, events[i], ev)
				}
			}
		})
	}
}

// TestReplayClientCancel starts a replay far larger than the socket
// buffers, reads a little of it and goes away: the handler must stop
// writing at once, return, and leave no goroutine behind.
func TestReplayClientCancel(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	seedLog(t, st, "big", 3000, nil)
	mon := New(Config{Store: st, Identify: e2eIdentify})
	s, _, err := mon.Open("big", nil)
	if err != nil {
		t.Fatal(err)
	}
	all, next := s.Results(0)
	full := len(mustJSON(map[string]any{"next": next, "path": "big", "results": all, "state": "active"}))

	// Count what the handler writes and when it returns.
	var written atomic.Int64
	returned := make(chan struct{}, 1)
	h := mon.Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { returned <- struct{}{} }()
		h.ServeHTTP(&countingWriter{ResponseWriter: w, n: &written}, r)
	}))
	// Small socket buffers, so the reply blocks on the client long
	// before it is done.
	srv.Config.ConnState = func(c net.Conn, cs http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && cs == http.StateNew {
			tc.SetWriteBuffer(4096)
		}
	}
	srv.Start()
	dialer := &net.Dialer{}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetReadBuffer(4096)
			}
			return c, err
		},
	}}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/paths/big/results?since=0", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("replay handler still running 10 s after its client went away")
	}
	if n := written.Load(); n >= int64(full) {
		t.Fatalf("handler wrote %d of %d bytes to a client that left", n, full)
	}
	client.CloseIdleConnections()
	srv.Close()
	mon.Close(context.Background())
	st.Close()
	testutil.WaitGoroutines(t, baseline)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n.Add(int64(n))
	return n, err
}

// TestReplayAbortsOnBadRecord: a record JSON cannot encode (a NaN
// log-likelihood) mid-replay aborts the reply — the client sees a
// transport error, never a 200 body that parses.
func TestReplayAbortsOnBadRecord(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seedLog(t, st, "nan", 600, func(w *store.Window) {
		if w.Window == 500 {
			w.LogLik = math.NaN()
		}
	})
	mon := New(Config{Store: st, Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()
	if code, v := doJSON(t, client, "PUT", srv.URL+"/v1/paths/nan", "", ""); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}
	// Closed, so an SSE feed that is not cut ends with its closed event.
	if code, v := doJSON(t, client, "DELETE", srv.URL+"/v1/paths/nan", "", ""); code != http.StatusOK {
		t.Fatalf("DELETE = %d %v", code, v)
	}

	// From 0, 500 good records put the 200 and part of the body on the
	// wire before the bad one: the body read must fail.
	resp, err := client.Get(srv.URL + "/v1/paths/nan/results?since=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err == nil {
		t.Fatalf("since=0: %d reply of %d bytes, read error %v (valid JSON: %v); want a cut 200",
			resp.StatusCode, len(body), err, json.Valid(body))
	}
	// From 500 the bad record comes first: nothing but the cut reaches
	// the client.
	if resp, err := client.Get(srv.URL + "/v1/paths/nan/results?since=500"); err == nil {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("since=500: %d reply of %d bytes read without error", resp.StatusCode, len(body))
		}
	}
	// An SSE backfill over the bad record is cut too: no terminal event.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/paths/nan/events", nil)
	req.Header.Set("Last-Event-ID", "0")
	if events := readSSE(t, client, req); len(events) > 0 && events[len(events)-1].typ == "closed" {
		t.Fatalf("SSE backfill over a bad record ended with a closed event after %d events", len(events))
	}
	// The server still answers: the abort closed one connection only.
	if code, _ := getBody(t, client, srv.URL+"/v1/paths/nan/results?since=501"); code != http.StatusOK {
		t.Fatalf("replay past the bad record = %d", code)
	}
}

// TestReplayConcurrentWriter streams replays while the pipeline appends
// windows and the log rolls small segments under it. Every reply must
// hold exactly the windows [since, next), contiguous: the ring snapshot
// and the disk scan never overlap or leave a gap. Run under -race.
func TestReplayConcurrentWriter(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mon := New(Config{MaxResults: 4, Store: st, Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()
	if code, v := doJSON(t, client, "PUT", srv.URL+"/v1/paths/w", "application/json", shortWindows); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}
	s, _ := mon.Session("w")

	const windows = 40
	obs := idleTrace(windows * 200)
	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < windows; i++ {
			b := trace.BatchOfObservations(obs[i*200 : (i+1)*200])
			for {
				_, err := s.OfferBatch(b)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrQueueFull) {
					wrote <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(2 * time.Millisecond)
		}
		wrote <- nil
	}()

	check := func(since int) int {
		ws, _, next := resultWindows(t, client, srv.URL, "w", since)
		if want := max(next-since, 0); len(ws) != want {
			t.Fatalf("since=%d next=%d: %d windows, want %d", since, next, len(ws), want)
		}
		for i, w := range ws {
			if w.Window != since+i {
				t.Fatalf("since=%d: result %d is window %d (gap or repeat)", since, i, w.Window)
			}
		}
		return next
	}
	replays := 0
	for done := false; !done; replays++ {
		select {
		case err := <-wrote:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		next := check(0)
		check(next / 2)
	}
	s.Drain()
	s.Wait(context.Background())
	if next := check(0); next != windows {
		t.Fatalf("final next = %d, want %d", next, windows)
	}
	if segs := st.Metrics().Segments.Load(); segs < 3 {
		t.Fatalf("only %d segments: the log never rolled under the replays", segs)
	}
	t.Logf("%d replays during the writes", replays)
}

// TestEachResultAllocBytes bounds the bytes a replay of a disk-only path
// allocates per record: the decoded record's own PMF and strings, and no
// per-record copy on the heap or segment-sized read buffer. The bound is
// the same whatever the segment size.
func TestEachResultAllocBytes(t *testing.T) {
	const records, runs = 3000, 5
	for _, segBytes := range []int64{4 << 10, 1 << 20} {
		st, err := store.Open(store.Options{Dir: t.TempDir(), SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		seedLog(t, st, "disk", records, nil)
		mon := New(Config{Store: st, Identify: e2eIdentify})
		s, _, err := mon.Open("disk", nil)
		if err != nil {
			t.Fatal(err)
		}
		walk := func() {
			n := 0
			err := s.eachResult(0, func(int) error { return nil }, func(*WindowJSON) error {
				n++
				return nil
			})
			if err != nil || n != records {
				t.Fatalf("replay passed %d records, err %v; want %d", n, err, records)
			}
		}
		walk() // warm the scan buffer pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			walk()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / (runs * records)
		t.Logf("SegmentBytes %d: %d B allocated per replayed record", segBytes, per)
		if per > 128 {
			t.Errorf("SegmentBytes %d: replay allocated %d B per record, want <= 128", segBytes, per)
		}
		mon.Close(context.Background())
		st.Close()
	}
}
