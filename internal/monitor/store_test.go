package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestResultsSinceParsing tables the ?since= query handling of the
// results endpoint: negatives and non-numbers get the 400 bad_request
// envelope, valid offsets (including past-the-end) succeed.
func TestResultsSinceParsing(t *testing.T) {
	mon := New(Config{Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()
	if code, v := doJSON(t, client, "PUT", srv.URL+"/v1/paths/p", "", ""); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}

	cases := []struct {
		name     string
		since    string // raw query value; "-" means no since parameter
		status   int
		code     string // expected envelope code on a non-2xx
		wantNext float64
	}{
		{name: "absent", since: "-", status: http.StatusOK},
		{name: "zero", since: "0", status: http.StatusOK},
		{name: "beyond end", since: "1000000", status: http.StatusOK, wantNext: 0},
		{name: "negative", since: "-1", status: http.StatusBadRequest, code: "bad_request"},
		{name: "very negative", since: "-9000", status: http.StatusBadRequest, code: "bad_request"},
		{name: "not a number", since: "abc", status: http.StatusBadRequest, code: "bad_request"},
		{name: "trailing junk", since: "3x", status: http.StatusBadRequest, code: "bad_request"},
		{name: "float", since: "1.5", status: http.StatusBadRequest, code: "bad_request"},
		{name: "empty value", since: "", status: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := srv.URL + "/v1/paths/p/results"
			if tc.since != "-" {
				url += "?since=" + tc.since
			}
			code, v := doJSON(t, client, "GET", url, "", "")
			if code != tc.status {
				t.Fatalf("GET %s = %d %v, want %d", url, code, v, tc.status)
			}
			if tc.code != "" {
				envelope, _ := v["error"].(map[string]any)
				if envelope["code"] != tc.code {
					t.Fatalf("error envelope = %v, want code %q", v, tc.code)
				}
				return
			}
			if _, ok := v["results"]; !ok {
				t.Fatalf("success body missing results: %v", v)
			}
			if next, ok := v["next"].(float64); !ok || next != tc.wantNext {
				t.Fatalf("next = %v, want %v", v["next"], tc.wantNext)
			}
		})
	}
}

// shortWindows is a cheap way to mass-produce windows: tiny count-based
// windows over the idle trace. Lossless windows fail identification
// immediately (no losses to model), which is exactly what makes them
// cheap — the store doesn't care whether a window decided.
const shortWindows = `{"size": 200, "gate": false}`

// resultWindows fetches /results?since=N and returns the decoded windows
// plus the raw array elements (for byte-level comparisons) and next.
func resultWindows(t *testing.T, client *http.Client, base, path string, since int) ([]WindowJSON, []json.RawMessage, int) {
	t.Helper()
	resp, err := client.Get(fmt.Sprintf("%s/v1/paths/%s/results?since=%d", base, path, since))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Results []json.RawMessage `json:"results"`
		Next    int               `json:"next"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET results: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results = %d", resp.StatusCode)
	}
	ws := make([]WindowJSON, len(v.Results))
	for i, raw := range v.Results {
		if err := json.Unmarshal(raw, &ws[i]); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
	}
	return ws, v.Results, v.Next
}

// TestResultsDiskBackfill shrinks the memory ring far below the window
// count and asserts ?since= offsets that fell out of it are served from
// the store, seamlessly stitched to the in-memory tail.
func TestResultsDiskBackfill(t *testing.T) {
	mon := New(Config{MaxResults: 4, StoreDir: t.TempDir(), Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()

	if code, v := doJSON(t, client, "PUT", srv.URL+"/v1/paths/p", "application/json", shortWindows); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}
	obs := idleTrace(5000) // 25 windows of 200
	ingestAll(t, client, srv.URL, "p", obs)
	if code, v := doJSON(t, client, "DELETE", srv.URL+"/v1/paths/p", "", ""); code != http.StatusOK {
		t.Fatalf("DELETE = %d %v", code, v)
	}

	ws, _, next := resultWindows(t, client, srv.URL, "p", 0)
	if len(ws) < 20 {
		t.Fatalf("only %d windows for 5000 idle probes", len(ws))
	}
	if next != len(ws) {
		t.Fatalf("next = %d with %d windows", next, len(ws))
	}
	for i, w := range ws {
		if w.Window != i {
			t.Fatalf("window %d has index %d: backfill stitched wrong", i, w.Window)
		}
	}
	// A mid-archive offset crosses the disk/memory boundary cleanly too.
	mid := len(ws) - 6 // below firstResult (= len-4), above 0
	tail, _, _ := resultWindows(t, client, srv.URL, "p", mid)
	if len(tail) != 6 || tail[0].Window != mid {
		t.Fatalf("since=%d: got %d windows starting at %d", mid, len(tail), tail[0].Window)
	}
	// The store counters are on /metrics.
	_, met := doJSON(t, client, "GET", srv.URL+"/metrics", "", "")
	if bw, _ := met["store_bytes_written"].(float64); bw <= 0 {
		t.Errorf("store_bytes_written = %v", met["store_bytes_written"])
	}
	if segs, _ := met["store_segments"].(float64); segs < 1 {
		t.Errorf("store_segments = %v", met["store_segments"])
	}
	if errs, _ := met["store_append_errors"].(float64); errs != 0 {
		t.Errorf("store_append_errors = %v", met["store_append_errors"])
	}
}

// sseIDEvent is one (id, event type, payload) triple read off an SSE
// stream by readSSE.
type sseIDEvent struct {
	id   int // -1 when the event carried no id: line
	typ  string
	data string
}

// readSSE consumes an SSE response until the server closes it, keeping
// the id: lines — what the Last-Event-ID tests care about.
func readSSE(t *testing.T, client *http.Client, req *http.Request) []sseIDEvent {
	t.Helper()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscription answered %d %s", resp.StatusCode, ct)
	}
	var events []sseIDEvent
	cur := sseIDEvent{id: -1}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
				cur.id = n
			}
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
			events = append(events, cur)
			cur = sseIDEvent{id: -1}
		}
	}
	return events
}

// TestSSELastEventIDBackfill reconnects to a session's feed with a
// Last-Event-ID older than the memory ring: the handler must replay every
// window after it (from disk where needed, with id: lines) and then end
// with the terminal closed event — no gaps, no duplicates.
func TestSSELastEventIDBackfill(t *testing.T) {
	mon := New(Config{MaxResults: 4, StoreDir: t.TempDir(), Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()

	if code, v := doJSON(t, client, "PUT", srv.URL+"/v1/paths/p", "application/json", shortWindows); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}
	ingestAll(t, client, srv.URL, "p", idleTrace(5000))
	if code, _ := doJSON(t, client, "DELETE", srv.URL+"/v1/paths/p", "", ""); code != http.StatusOK {
		t.Fatal("DELETE failed")
	}
	total := 0
	if ws, _, _ := resultWindows(t, client, srv.URL, "p", 0); true {
		total = len(ws)
	}
	if total < 20 {
		t.Fatalf("setup made only %d windows", total)
	}

	const last = 2 // far below firstResult (= total-4): forces disk replay
	req, _ := http.NewRequest("GET", srv.URL+"/v1/paths/p/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(last))
	events := readSSE(t, client, req)

	want := last + 1
	for _, ev := range events {
		switch ev.typ {
		case "window":
			if ev.id != want {
				t.Fatalf("replayed window id %d, want %d (gap or duplicate)", ev.id, want)
			}
			var w WindowJSON
			if err := json.Unmarshal([]byte(ev.data), &w); err != nil || w.Window != ev.id {
				t.Fatalf("window payload disagrees with id %d: %s", ev.id, ev.data)
			}
			want++
		case "closed":
			if ev.id != -1 && ev.id != 0 {
				// closed events carry no id: line; cur.id stays -1
				t.Fatalf("closed event carried id %d", ev.id)
			}
		}
	}
	if want != total {
		t.Fatalf("replay covered [%d,%d), want through %d", last+1, want, total)
	}
	if ev := events[len(events)-1]; ev.typ != "closed" {
		t.Fatalf("stream ended with %q, want closed", ev.typ)
	}

	// A malformed Last-Event-ID is a 400, not a silent full replay.
	req, _ = http.NewRequest("GET", srv.URL+"/v1/paths/p/events", nil)
	req.Header.Set("Last-Event-ID", "-3")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// TestE2ERestartResume is the durability acceptance test: a daemon with a
// store monitors a live congesting path, is killed mid-run, and a new
// daemon over the same directory must (a) serve the pre-crash windows
// byte-identically and (b) continue window numbering from the persisted
// counter when the path re-opens and keeps ingesting.
func TestE2ERestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed e2e test")
	}
	congested := congestedTrace(t)
	cut := len(congested) * 3 / 5 // stop mid-run, after the t=100s onset
	dir := t.TempDir()
	spec := `{"duration_seconds": 40, "gate_loss_factor": 8}`

	// First incarnation: ingest the first 60% and drain the session so
	// the window set is deterministic, then kill the daemon.
	mon1 := New(Config{QueueSize: 4096, Identify: e2eIdentify, StoreDir: dir})
	srv1 := httptest.NewServer(mon1.Handler())
	client := srv1.Client()
	if code, v := doJSON(t, client, "PUT", srv1.URL+"/v1/paths/plab", "application/json", spec); code != http.StatusCreated {
		t.Fatalf("PUT = %d %v", code, v)
	}
	ingestAll(t, client, srv1.URL, "plab", congested[:cut])
	if code, v := doJSON(t, client, "DELETE", srv1.URL+"/v1/paths/plab", "", ""); code != http.StatusOK || v["state"] != "closed" {
		t.Fatalf("DELETE = %d %v", code, v)
	}
	preCrash, preRaw, preNext := resultWindows(t, client, srv1.URL, "plab", 0)
	if len(preCrash) < 2 {
		t.Fatalf("first run produced only %d windows", len(preCrash))
	}
	srv1.Close()
	mon1.Close(context.Background())

	// Second incarnation over the same directory.
	mon2 := New(Config{QueueSize: 4096, Identify: e2eIdentify, StoreDir: dir})
	defer mon2.Close(context.Background())
	srv2 := httptest.NewServer(mon2.Handler())
	defer srv2.Close()
	client = srv2.Client()
	if code, v := doJSON(t, client, "PUT", srv2.URL+"/v1/paths/plab", "application/json", spec); code != http.StatusCreated {
		t.Fatalf("re-PUT = %d %v", code, v)
	}

	// (a) The pre-crash archive is served byte-identically from disk.
	replayed, replayedRaw, next := resultWindows(t, client, srv2.URL, "plab", 0)
	if len(replayed) != len(preCrash) {
		t.Fatalf("restart serves %d windows, pre-crash had %d", len(replayed), len(preCrash))
	}
	for i := range preRaw {
		if string(replayedRaw[i]) != string(preRaw[i]) {
			t.Fatalf("window %d differs across restart:\n pre %s\npost %s", i, preRaw[i], replayedRaw[i])
		}
	}
	if next != preNext {
		t.Fatalf("resume counter = %d, pre-crash next was %d", next, preNext)
	}

	// (b) New windows continue the numbering from the persisted counter.
	ingestAll(t, client, srv2.URL, "plab", congested[cut:])
	if code, v := doJSON(t, client, "DELETE", srv2.URL+"/v1/paths/plab", "", ""); code != http.StatusOK {
		t.Fatalf("DELETE after resume = %d %v", code, v)
	}
	all, _, finalNext := resultWindows(t, client, srv2.URL, "plab", 0)
	if len(all) <= len(preCrash) {
		t.Fatalf("resumed run added no windows: %d total", len(all))
	}
	for i, w := range all {
		if w.Window != i {
			t.Fatalf("window %d numbered %d: resumed indices not contiguous", i, w.Window)
		}
	}
	if finalNext != len(all) {
		t.Fatalf("final next = %d with %d windows", finalNext, len(all))
	}
	// The resumed pipeline is a live pipeline, not a replay shim: its
	// windows run the full gate + identification. (Whether a given 40 s
	// slice concludes DCL is the model's call, not this test's.)
	decided := false
	for _, w := range all[len(preCrash):] {
		if w.Decided {
			decided = true
		}
	}
	if !decided {
		t.Error("no post-restart window was identified on the congested path")
	}

	// And the whole archive withstands an offline verify: every frame of
	// every segment intact after crash recovery plus a second run.
	st := mon2.Store()
	if st == nil {
		t.Fatal("monitor lost its store")
	}
	slog, err := st.Log("plab")
	if err != nil {
		t.Fatal(err)
	}
	if evs, err := slog.Verify(); err != nil || len(evs) != 0 {
		t.Fatalf("post-restart verify: %v, %v", evs, err)
	}
	// A poll from the pre-crash next crosses the restart boundary without
	// gaps or repeats.
	tail, _, _ := resultWindows(t, client, srv2.URL, "plab", preNext)
	if len(tail) != len(all)-len(preCrash) || tail[0].Window != preNext {
		t.Fatalf("since=%d after restart: %d windows starting at %d", preNext, len(tail), tail[0].Window)
	}
}

// TestRejectedIngestCreatesNothing: a POST whose body does not decode
// answers 400 and leaves no trace: no session, so the path is still
// unknown, and no WAL directory.
func TestRejectedIngestCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	mon := New(Config{StoreDir: dir, Identify: e2eIdentify})
	defer mon.Close(context.Background())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	client := srv.Client()
	for _, ct := range []string{"application/json", "text/csv"} {
		if code, v := doJSON(t, client, "POST", srv.URL+"/v1/paths/typo/observations", ct, "{not json\n1,2\n"); code != http.StatusBadRequest {
			t.Fatalf("%s: malformed POST = %d %v, want 400", ct, code, v)
		}
		if code, v := doJSON(t, client, "GET", srv.URL+"/v1/paths/typo", "", ""); code != http.StatusNotFound {
			t.Fatalf("%s: GET after a rejected POST = %d %v, want 404", ct, code, v)
		}
		if _, err := os.Stat(filepath.Join(dir, "typo")); !os.IsNotExist(err) {
			t.Fatalf("%s: rejected POST left a WAL directory (stat: %v)", ct, err)
		}
	}
}
