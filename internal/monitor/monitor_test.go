package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/trace"
)

// healthyObs synthesizes n delivered probes at 20 ms spacing with a mildly
// varying delay — a quiet path with no losses.
func healthyObs(n int) []trace.Observation {
	obs := make([]trace.Observation, n)
	for i := range obs {
		obs[i] = trace.Observation{
			Seq:      int64(i),
			SendTime: float64(i) * 0.02,
			Delay:    0.010 + 0.001*float64(i%7),
		}
	}
	return obs
}

func TestOpenValidation(t *testing.T) {
	m := New(Config{})
	for _, id := range []string{"", "a/b", "a b", strings.Repeat("x", 129)} {
		if _, _, err := m.Open(id, nil); err == nil {
			t.Errorf("Open(%q) accepted an invalid id", id)
		}
	}
	if _, _, err := m.Open("p", &core.WindowConfig{}); err == nil {
		t.Error("Open accepted a window config with neither Size nor Duration")
	}

	s1, created, err := m.Open("p", nil)
	if err != nil || !created {
		t.Fatalf("Open(p) = %v, created=%v", err, created)
	}
	s2, created, err := m.Open("p", nil)
	if err != nil || created || s2 != s1 {
		t.Fatalf("second Open(p) = %p, created=%v, err=%v; want existing session", s2, created, err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := m.Open("q", nil); err != ErrShuttingDown {
		t.Errorf("Open after Close = %v, want ErrShuttingDown", err)
	}
}

func TestSessionCap(t *testing.T) {
	m := New(Config{MaxSessions: 2})
	defer m.Close(context.Background())
	for _, id := range []string{"a", "b"} {
		if _, _, err := m.Open(id, nil); err != nil {
			t.Fatalf("Open(%s): %v", id, err)
		}
	}
	if _, _, err := m.Open("c", nil); err != ErrTooManySessions {
		t.Fatalf("Open over cap = %v, want ErrTooManySessions", err)
	}
	// A closed session no longer counts against the cap.
	s, _ := m.Session("a")
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open("c", nil); err != nil {
		t.Fatalf("Open after one session closed: %v", err)
	}
}

// TestOfferBackpressure fills an unstarted session's queue directly, so the
// accepted/dropped split at the full-queue boundary is deterministic.
func TestOfferBackpressure(t *testing.T) {
	m := New(Config{QueueSize: 8})
	s := newSession(m, "p", m.cfg.Window)

	accepted, err := s.Offer(healthyObs(10))
	if err != ErrQueueFull || accepted != 8 {
		t.Fatalf("Offer over capacity = (%d, %v), want (8, ErrQueueFull)", accepted, err)
	}
	if accepted, err = s.Offer(healthyObs(1)); err != ErrQueueFull || accepted != 0 {
		t.Fatalf("Offer on full queue = (%d, %v), want (0, ErrQueueFull)", accepted, err)
	}
	st := s.Status()
	if st.Ingested != 8 || st.Dropped != 3 || st.QueueLen != 8 {
		t.Fatalf("status = ingested %d dropped %d queue %d, want 8/3/8",
			st.Ingested, st.Dropped, st.QueueLen)
	}
	if got := m.metrics.ingested.Value(); got != 8 {
		t.Errorf("metrics ingested = %d, want 8", got)
	}
	if got := m.metrics.dropped.Value(); got != 3 {
		t.Errorf("metrics dropped = %d, want 3", got)
	}

	s.Drain()
	if _, err := s.Offer(healthyObs(1)); err != ErrSessionClosed {
		t.Fatalf("Offer after Drain = %v, want ErrSessionClosed", err)
	}
	s.Drain() // idempotent
}

func TestSessionDrainFlushesPartialWindow(t *testing.T) {
	m := New(Config{Window: core.WindowConfig{Size: 1000, FlushPartial: true, DisableGate: true}})
	defer m.Close(context.Background())
	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Offer(healthyObs(50)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	results, next := s.Results(0)
	if len(results) != 1 || next != 1 {
		t.Fatalf("got %d results (next %d), want the flushed partial window", len(results), next)
	}
	if !results[0].Partial || results[0].End != 50 {
		t.Fatalf("flushed window = %+v, want partial over [0,50)", results[0])
	}
}

func TestSubscribeLifecycle(t *testing.T) {
	m := New(Config{Window: core.WindowConfig{Size: 100, DisableGate: true}})
	defer m.Close(context.Background())
	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := s.Subscribe(16)
	defer cancel()
	if _, err := s.Offer(healthyObs(100)); err != nil {
		t.Fatal(err)
	}

	want := func(typ string) Event {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event channel closed while waiting for %q", typ)
			}
			if ev.Type != typ {
				t.Fatalf("event %q (%s), want %q", ev.Type, ev.Data, typ)
			}
			return ev
		case <-time.After(30 * time.Second):
			t.Fatalf("no %q event", typ)
		}
		panic("unreachable")
	}
	ev := want("window")
	var w eventJSON
	if err := json.Unmarshal(ev.Data, &w); err != nil {
		t.Fatalf("window event payload: %v", err)
	}
	if w.Path != "p" || w.End != 100 {
		t.Fatalf("window event = %+v, want path p, end 100", w)
	}

	s.Drain()
	want("closed")
	if _, ok := <-events; ok {
		t.Fatal("event channel still open after the closed event")
	}

	// A late subscriber to a closed session gets the terminal event at once.
	late, lateCancel := s.Subscribe(1)
	defer lateCancel()
	if ev := <-late; ev.Type != "closed" {
		t.Fatalf("late subscriber got %q, want closed", ev.Type)
	}
	if _, ok := <-late; ok {
		t.Fatal("late subscriber channel not closed")
	}
}

func TestAbortAbandonsBacklog(t *testing.T) {
	m := New(Config{})
	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Offer(healthyObs(64)); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait after Abort: %v", err)
	}
	if st := s.State(); st != StateClosed {
		t.Fatalf("session state after Abort = %v, want closed", st)
	}
}

func doJSON(t *testing.T, client *http.Client, method, url, contentType, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, v
}

func TestHTTPAPI(t *testing.T) {
	m := New(Config{Window: core.WindowConfig{Size: 1000, FlushPartial: true}})
	defer m.Close(context.Background())
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := srv.Client()

	if code, v := doJSON(t, c, "GET", srv.URL+"/healthz", "", ""); code != 200 || v["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, v)
	}

	// Create, re-create, status, list.
	code, v := doJSON(t, c, "PUT", srv.URL+"/v1/paths/alpha", "application/json", `{"size": 500}`)
	if code != http.StatusCreated || v["state"] != "active" {
		t.Fatalf("PUT alpha = %d %v", code, v)
	}
	if code, _ := doJSON(t, c, "PUT", srv.URL+"/v1/paths/alpha", "", ""); code != http.StatusOK {
		t.Fatalf("second PUT alpha = %d, want 200", code)
	}
	if code, _ := doJSON(t, c, "GET", srv.URL+"/v1/paths/alpha", "", ""); code != http.StatusOK {
		t.Fatalf("GET alpha status = %d", code)
	}
	if code, _ := doJSON(t, c, "GET", srv.URL+"/v1/paths/nope", "", ""); code != http.StatusNotFound {
		t.Fatalf("GET unknown path = %d, want 404", code)
	}
	if code, v := doJSON(t, c, "GET", srv.URL+"/v1/paths", "", ""); code != 200 || len(v["paths"].([]any)) != 1 {
		t.Fatalf("GET paths = %d %v", code, v)
	}

	// Bad requests.
	if code, _ := doJSON(t, c, "PUT", srv.URL+"/v1/paths/bad", "application/json", `{"size": "x"}`); code != http.StatusBadRequest {
		t.Fatalf("PUT malformed spec = %d, want 400", code)
	}
	if code, _ := doJSON(t, c, "POST", srv.URL+"/v1/paths/alpha/observations", "application/json", `nonsense`); code != http.StatusBadRequest {
		t.Fatalf("POST malformed batch = %d, want 400", code)
	}
	if code, _ := doJSON(t, c, "POST", srv.URL+"/v1/paths/alpha/observations", "application/json",
		`[{"seq": 0, "send_time": 0, "delay": -1}]`); code != http.StatusBadRequest {
		t.Fatalf("POST negative delay = %d, want 400", code)
	}

	// JSON ingest (wrapped form) and CSV ingest, auto-creating a session.
	code, v = doJSON(t, c, "POST", srv.URL+"/v1/paths/alpha/observations", "application/json",
		`{"observations": [{"seq": 0, "send_time": 0.0, "delay": 0.01}, {"seq": 1, "send_time": 0.02, "lost": true}]}`)
	if code != 200 || v["accepted"] != float64(2) {
		t.Fatalf("JSON ingest = %d %v", code, v)
	}
	csv := "seq,send_time,delay,lost\n0,0.00,0.010,0\n1,0.02,0.012,0\n2,0.04,0,1\n"
	code, v = doJSON(t, c, "POST", srv.URL+"/v1/paths/beta/observations", "text/csv", csv)
	if code != 200 || v["accepted"] != float64(3) {
		t.Fatalf("CSV ingest = %d %v", code, v)
	}
	if _, ok := m.Session("beta"); !ok {
		t.Fatal("CSV ingest did not auto-create the session")
	}

	// Metrics reflect the five accepted observations.
	var met map[string]any
	if code, met = doJSON(t, c, "GET", srv.URL+"/metrics", "", ""); code != 200 {
		t.Fatalf("GET metrics = %d", code)
	}
	if got := met["observations_ingested"]; got != float64(5) {
		t.Fatalf("metrics observations_ingested = %v, want 5", got)
	}

	// DELETE drains and flushes; the closed session stays queryable until a
	// second DELETE removes it.
	code, v = doJSON(t, c, "DELETE", srv.URL+"/v1/paths/beta", "", "")
	if code != http.StatusOK || v["state"] != "closed" {
		t.Fatalf("DELETE beta = %d %v, want 200 closed", code, v)
	}
	code, v = doJSON(t, c, "GET", srv.URL+"/v1/paths/beta/results", "", "")
	if code != 200 {
		t.Fatalf("GET results after drain = %d", code)
	}
	results := v["results"].([]any)
	if len(results) != 1 || results[0].(map[string]any)["partial"] != true {
		t.Fatalf("results after drain = %v, want one flushed partial window", v)
	}
	if code, _ := doJSON(t, c, "DELETE", srv.URL+"/v1/paths/beta", "", ""); code != http.StatusOK {
		t.Fatalf("second DELETE beta = %d", code)
	}
	if code, _ := doJSON(t, c, "GET", srv.URL+"/v1/paths/beta", "", ""); code != http.StatusNotFound {
		t.Fatalf("GET beta after removal = %d, want 404", code)
	}

	// Ingesting into a drained path conflicts.
	s, _ := m.Session("alpha")
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, c, "POST", srv.URL+"/v1/paths/alpha/observations", "text/csv", csv); code != http.StatusConflict {
		t.Fatalf("POST to drained path = %d, want 409", code)
	}
}

// TestCSVIngestRejectsNonFinite: a CSV body with a non-finite delay or
// send time is refused whole with the 400 error envelope, naming the line,
// and none of its rows reach a session: the rejected POSTs do not even
// create the path.
func TestCSVIngestRejectsNonFinite(t *testing.T) {
	m := New(Config{Window: core.WindowConfig{Size: 1000}})
	defer m.Close(context.Background())
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, body := range []string{
		"seq,send_time,delay,lost\n0,0.00,0.010,0\n1,0.02,NaN,0\n",
		"seq,send_time,delay,lost\n0,0.00,0.010,0\n1,0.02,+Inf,0\n",
		"seq,send_time,delay,lost\n0,0.00,0.010,0\n1,Inf,0,1\n",
	} {
		code, v := doJSON(t, srv.Client(), "POST", srv.URL+"/v1/paths/p/observations", "text/csv", body)
		if code != http.StatusBadRequest {
			t.Fatalf("POST %q = %d %v, want 400", body, code, v)
		}
		env, _ := v["error"].(map[string]any)
		if env["code"] != codeBadRequest || !strings.Contains(fmt.Sprint(env["message"]), "line 3") {
			t.Fatalf("POST %q: envelope %v, want code %q naming line 3", body, v, codeBadRequest)
		}
	}
	if s, ok := m.Session("p"); ok {
		t.Fatalf("rejected bodies created path p (%d observations ingested)", s.Status().Ingested)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	m := New(Config{QueueSize: 4, Window: core.WindowConfig{Size: 1000}})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	defer m.Close(context.Background())

	// An unstarted session keeps the queue from draining, so the 429 split
	// is deterministic: register it behind the monitor's back.
	s := newSession(m, "jam", m.cfg.Window)
	m.mu.Lock()
	m.sessions["jam"] = s
	m.mu.Unlock()

	var batch []string
	for i := 0; i < 6; i++ {
		batch = append(batch, fmt.Sprintf(`{"seq": %d, "send_time": %g, "delay": 0.01}`, i, float64(i)*0.02))
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/paths/jam/observations",
		strings.NewReader("["+strings.Join(batch, ",")+"]"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v["accepted"] != float64(4) || v["dropped"] != float64(2) {
		t.Fatalf("429 body = %v, want accepted 4 dropped 2", v)
	}
}

func TestHealthzWhileDraining(t *testing.T) {
	m := New(Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, v := doJSON(t, srv.Client(), "GET", srv.URL+"/healthz", "", "")
	if code != http.StatusServiceUnavailable || v["status"] != "draining" {
		t.Fatalf("healthz while draining = %d %v, want 503", code, v)
	}
	if code, _ := doJSON(t, srv.Client(), "PUT", srv.URL+"/v1/paths/x", "", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT while draining = %d, want 503", code)
	}
}
