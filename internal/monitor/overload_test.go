package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dominantlink/internal/core"
)

// TestOfferRateLimited: a session rate limit refuses the tail of a batch
// with a retry hint, and the refusals are counted distinctly from queue
// drops.
func TestOfferRateLimited(t *testing.T) {
	m := New(Config{SessionRate: 10, SessionBurst: 5})
	s := newSession(m, "p", m.cfg.Window)

	accepted, err := s.Offer(healthyObs(8))
	if accepted != 5 {
		t.Fatalf("accepted = %d, want the 5-token burst", accepted)
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var rl *RateLimitedError
	if !errors.As(err, &rl) || rl.RetryAfter <= 0 {
		t.Fatalf("err = %#v, want a positive RetryAfter hint", err)
	}
	st := s.Status()
	if st.Ingested != 5 || st.RateLimited != 3 || st.Dropped != 3 {
		t.Fatalf("status = ingested %d rateLimited %d dropped %d, want 5/3/3",
			st.Ingested, st.RateLimited, st.Dropped)
	}
	if got := m.metrics.rateLimited.Value(); got != 3 {
		t.Errorf("metrics rate_limited = %d, want 3", got)
	}
}

// TestOfferGlobalRateRefund: the global bucket must get back whatever a
// narrower session bucket refuses, so one throttled session cannot starve
// the rest of the monitor.
func TestOfferGlobalRateRefund(t *testing.T) {
	m := New(Config{GlobalRate: 100, GlobalBurst: 10, SessionRate: 100, SessionBurst: 2})
	a := newSession(m, "a", m.cfg.Window)
	b := newSession(m, "b", m.cfg.Window)

	if accepted, _ := a.Offer(healthyObs(10)); accepted != 2 {
		t.Fatalf("session a accepted = %d, want its 2-token burst", accepted)
	}
	// Session a consumed 2 global tokens, not 10: b still gets its 2.
	if accepted, _ := b.Offer(healthyObs(10)); accepted != 2 {
		t.Fatalf("session b accepted = %d, want 2 (global tokens were refunded)", accepted)
	}
}

// TestOfferDropOldest: the whole offered batch is accepted, the oldest
// queued batches are evicted to make room, and the accounting closes:
// every accepted observation is either still queued or counted evicted.
func TestOfferDropOldest(t *testing.T) {
	m := New(Config{QueueSize: 4, Shed: ShedDropOldest})
	s := newSession(m, "p", m.cfg.Window)

	if accepted, err := s.Offer(healthyObs(4)); accepted != 4 || err != nil {
		t.Fatalf("first Offer = (%d, %v), want (4, nil)", accepted, err)
	}
	if accepted, err := s.Offer(healthyObs(3)); accepted != 3 || err != nil {
		t.Fatalf("overflow Offer = (%d, %v), want (3, nil) under drop-oldest", accepted, err)
	}
	// Eviction is batch-granular: the whole first batch (4 obs) went to
	// make room for the 3 new ones.
	st := s.Status()
	if st.Ingested != 7 || st.Evicted != 4 || st.Dropped != 0 || st.QueueLen != 3 {
		t.Fatalf("status = ingested %d evicted %d dropped %d queue %d, want 7/4/0/3",
			st.Ingested, st.Evicted, st.Dropped, st.QueueLen)
	}
	if st.Ingested-st.Evicted != uint64(st.QueueLen) {
		t.Fatal("accounting leak: ingested - evicted != queued")
	}
	// The queue holds only the newest batch. (Popping directly stands in
	// for the pipeline, which also decrements the queued count.)
	b := s.queue.tryPop()
	if b.Len() != 3 || b.Seq(0) != 0 {
		t.Fatalf("surviving batch = %d obs starting at seq %d, want the 3-probe overflow batch", b.Len(), b.Seq(0))
	}

	// A batch bigger than the whole queue evicts its own head: the newest
	// QueueSize observations survive.
	if accepted, err := s.Offer(healthyObs(6)); accepted != 6 || err != nil {
		t.Fatalf("oversized Offer = (%d, %v), want (6, nil) under drop-oldest", accepted, err)
	}
	if b := s.queue.tryPop(); b.Len() != 4 || b.Seq(0) != 2 {
		t.Fatalf("oversized survivor = %d obs starting at seq %d, want 4 obs from seq 2", b.Len(), b.Seq(0))
	}
}

// TestOfferDropNewest: overflow is silently dropped, no error, nothing
// asked of the client.
func TestOfferDropNewest(t *testing.T) {
	m := New(Config{QueueSize: 4, Shed: ShedDropNewest})
	s := newSession(m, "p", m.cfg.Window)

	accepted, err := s.Offer(healthyObs(6))
	if accepted != 4 || err != nil {
		t.Fatalf("Offer = (%d, %v), want (4, nil) under drop-newest", accepted, err)
	}
	st := s.Status()
	if st.Ingested != 4 || st.Dropped != 2 || st.Evicted != 0 {
		t.Fatalf("status = ingested %d dropped %d evicted %d, want 4/2/0",
			st.Ingested, st.Dropped, st.Evicted)
	}
}

// TestHTTPRateLimited429: a rate-limit refusal over HTTP is a 429 with
// the rate_limited envelope code and a positive Retry-After.
func TestHTTPRateLimited429(t *testing.T) {
	m := New(Config{SessionRate: 5, SessionBurst: 2, Window: core.WindowConfig{Size: 1000}})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	defer m.Close(context.Background())

	var rows []string
	for i := 0; i < 6; i++ {
		rows = append(rows, fmt.Sprintf(`{"seq": %d, "send_time": %g, "delay": 0.01}`, i, float64(i)*0.02))
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/paths/limited/observations",
		"application/json", strings.NewReader("["+strings.Join(rows, ",")+"]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var v struct {
		Accepted int `json:"accepted"`
		Error    struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Error.Code != codeRateLimited || v.Accepted != 2 {
		t.Fatalf("429 body = %+v, want code rate_limited with accepted 2", v)
	}
}

// TestErrorEnvelope: every non-2xx /v1 response carries the uniform
// {"error": {"code", "message"}} envelope with a stable code.
func TestErrorEnvelope(t *testing.T) {
	m := New(Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	defer m.Close(context.Background())

	for _, tc := range []struct {
		method, url string
		status      int
		code        string
	}{
		{"GET", "/v1/paths/ghost", http.StatusNotFound, codeNotFound},
		{"GET", "/v1/paths/ghost/results", http.StatusNotFound, codeNotFound},
		{"GET", "/v1/paths/ghost/events", http.StatusNotFound, codeNotFound},
		{"PUT", "/v1/paths/bad%2Fid", http.StatusBadRequest, codeBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.url, nil)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: envelope does not decode: %v", tc.method, tc.url, err)
		}
		if resp.StatusCode != tc.status || v.Error.Code != tc.code || v.Error.Message == "" {
			t.Errorf("%s %s = %d %q %q, want %d %q with a message",
				tc.method, tc.url, resp.StatusCode, v.Error.Code, v.Error.Message, tc.status, tc.code)
		}
	}
}

// TestShedResultsOverHTTPAndSSE: windows refused by admission control
// surface as explicit shed results on both read paths — the /results
// polling endpoint and the SSE event feed — not as silent gaps.
func TestShedResultsOverHTTPAndSSE(t *testing.T) {
	wcfg := core.WindowConfig{
		Size: 50, DisableGate: true, FlushPartial: true,
		Admit: func(*core.WindowResult) error { return errors.New("always shedding") },
	}
	m := New(Config{Window: wcfg})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	defer m.Close(context.Background())

	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}

	// SSE subscriber first, so it sees the shed windows live.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	req, _ := http.NewRequestWithContext(sseCtx, "GET", srv.URL+"/v1/paths/p/events", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sseShed := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		isWindow := false
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				isWindow = line == "event: window"
			}
			if isWindow && strings.HasPrefix(line, "data: ") {
				var ev struct {
					Shed bool `json:"shed"`
				}
				if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil && ev.Shed {
					sseShed <- true
					return
				}
			}
		}
	}()

	if _, err := s.Offer(healthyObs(120)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	if st.Shed != st.Windows || st.Shed == 0 {
		t.Fatalf("status = %d windows, %d shed; want every window shed", st.Windows, st.Shed)
	}

	// /results: shed windows are present and marked.
	rresp, err := srv.Client().Get(srv.URL + "/v1/paths/p/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var out struct {
		Results []struct {
			Shed  bool   `json:"shed"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results over HTTP")
	}
	for i, r := range out.Results {
		if !r.Shed || !strings.Contains(r.Error, "always shedding") {
			t.Fatalf("result %d = %+v, want shed with the admission reason", i, r)
		}
	}

	select {
	case <-sseShed:
	case <-time.After(5 * time.Second):
		t.Fatal("no shed window arrived over SSE")
	}
	if got := m.metrics.windowsShed.Value(); got == 0 {
		t.Error("windows_shed metric not incremented")
	}
}

// TestBreakerShedsWindows: with every identification slower than the
// breaker deadline, the breaker opens after Trips windows and subsequent
// windows are shed instead of queued behind the stalled engine.
func TestBreakerShedsWindows(t *testing.T) {
	m := New(Config{
		// One worker so windows are admitted strictly one at a time: with a
		// wider pool, several windows pass the breaker's admit check before
		// the first slow fit is observed, and the admitted count depends on
		// scheduling instead of on Trips.
		Workers: 1,
		Window:  core.WindowConfig{Size: 20, DisableGate: true, FlushPartial: true},
		Breaker: BreakerConfig{Deadline: time.Millisecond, Trips: 2, Cooldown: time.Hour},
		EngineHook: func(ctx context.Context) error {
			select { // every fit is pathologically slow
			case <-time.After(20 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer m.Close(context.Background())
	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Offer(healthyObs(200)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	// The breaker opens after Trips=2 observed slow windows. Admission
	// happens in the windower, observation in the result consumer, so the
	// next window's admit check can race the previous window's latency
	// observation and a straggler or two may slip through the closing
	// door; the contract is "opens after Trips and sheds the rest", not
	// an exact admit count.
	if st.Admitted < 2 || st.Admitted > 4 {
		t.Fatalf("admitted = %d, want Trips=2 (plus at most a couple racing the trip)", st.Admitted)
	}
	if st.Shed != st.Windows-st.Admitted || st.Shed == 0 {
		t.Fatalf("shed = %d of %d windows (admitted %d), want everything after the trip",
			st.Shed, st.Windows, st.Admitted)
	}
	if got := m.BreakerState(); got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}
	if got := m.metrics.breakerOpens.Value(); got != 1 {
		t.Errorf("breaker_opens = %d, want 1", got)
	}
}

// TestWindowDeadlineOverMonitor: the windower deadline, configured
// through the monitor's window spec, turns a hung identification into a
// deadlined (non-fatal) window and the session finishes cleanly.
func TestWindowDeadlineOverMonitor(t *testing.T) {
	m := New(Config{
		Window: core.WindowConfig{
			Size: 50, DisableGate: true, FlushPartial: true,
			Deadline: 20 * time.Millisecond,
		},
		EngineHook: func(ctx context.Context) error {
			<-ctx.Done() // hang until the per-window deadline fires
			return ctx.Err()
		},
	})
	defer m.Close(context.Background())
	s, _, err := m.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Offer(healthyObs(100)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(waitCtx); err != nil {
		t.Fatalf("session did not finish despite per-window deadlines: %v", err)
	}
	st := s.Status()
	if st.Deadlined != st.Windows || st.Deadlined == 0 {
		t.Fatalf("deadlined = %d of %d windows, want all of them", st.Deadlined, st.Windows)
	}
	if st.Error != "" {
		t.Fatalf("deadline expiry must not be a terminal session error, got %q", st.Error)
	}
	if got := m.metrics.windowsDeadline.Value(); got != int64(st.Windows) {
		t.Errorf("windows_deadline_expired = %d, want %d", got, st.Windows)
	}
}
