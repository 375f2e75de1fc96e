package monitor

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dominantlink/internal/core"
	"dominantlink/internal/obs"
	"dominantlink/internal/store"
	"dominantlink/internal/trace"
)

// maxIngestBody bounds one observation POST (JSON or CSV).
const maxIngestBody = 32 << 20

// WindowJSON is the wire form of one window result, shared by the
// results endpoint and the SSE feed. Identification fields carry full
// fidelity (PMF, log-likelihood, iteration count), so a single-window
// session reproduces the one-shot pipeline byte for byte. It is an alias
// of the durable store's record payload by design: what the store
// persists is exactly what the API serves, which is what makes results
// replayed from disk after a restart byte-identical to the originals.
type WindowJSON = store.Window

// windowJSON renders one pipeline result for the wire.
func windowJSON(res core.WindowResult) WindowJSON {
	j := WindowJSON{
		Window:     res.Index,
		Start:      res.Start,
		End:        res.End,
		StartTime:  res.StartTime,
		EndTime:    res.EndTime,
		Partial:    res.Partial,
		Stationary: res.Stationarity.Stationary,
		Admitted:   res.Admitted,
		Shed:       res.Shed,
		Decided:    res.Decided(),
		HasDCL:     res.HasDCL(),
	}
	if res.ID != nil {
		j.LossRate = res.ID.LossRate
		j.SDCL = res.ID.SDCL.Accept
		j.WDCL = res.ID.WDCL.Accept
		j.BoundSeconds = res.ID.BoundSeconds
		j.PMF = res.ID.VirtualPMF
		j.LogLik = res.ID.LogLik
		j.EMIterations = res.ID.EMIterations
		j.Summary = res.ID.Summary()
	}
	if res.Transition != core.TransitionNone {
		j.Transition = res.Transition.String()
	}
	if res.Err != nil {
		j.NoLosses = errors.Is(res.Err, core.ErrNoLosses)
		j.Error = res.Err.Error()
	}
	return j
}

// eventJSON is an SSE payload: a window result stamped with its path.
type eventJSON struct {
	Path string `json:"path"`
	WindowJSON
}

// StatusJSON is the wire form of one session's registry entry.
type StatusJSON struct {
	Path             string  `json:"path"`
	State            string  `json:"state"`
	Ingested         uint64  `json:"observations_ingested"`
	Dropped          uint64  `json:"observations_dropped"`
	Evicted          uint64  `json:"observations_evicted,omitempty"`
	RateLimited      uint64  `json:"observations_rate_limited,omitempty"`
	QueueLen         int     `json:"queue_len"`
	QueueCap         int     `json:"queue_cap"`
	Windows          uint64  `json:"windows"`
	Admitted         uint64  `json:"windows_admitted"`
	Rejected         uint64  `json:"windows_rejected"`
	Shed             uint64  `json:"windows_shed,omitempty"`
	Deadlined        uint64  `json:"windows_deadline_expired,omitempty"`
	ProbesWindowed   uint64  `json:"observations_windowed"`
	HasDCL           bool    `json:"has_dcl"`
	BoundSeconds     float64 `json:"bound_seconds,omitempty"`
	LastTransition   string  `json:"last_transition,omitempty"`
	LastTransitionAt float64 `json:"last_transition_at,omitempty"`
	Restarts         uint64  `json:"restarts,omitempty"`
	Lost             uint64  `json:"observations_lost,omitempty"`
	Stalled          bool    `json:"stalled,omitempty"`
	Error            string  `json:"error,omitempty"`
	StoreError       string  `json:"store_error,omitempty"`
}

// windowSpec is the optional JSON body of a session-creating PUT.
type windowSpec struct {
	Size            int     `json:"size"`
	Duration        float64 `json:"duration_seconds"`
	Stride          int     `json:"stride"`
	StrideDuration  float64 `json:"stride_seconds"`
	Gate            *bool   `json:"gate"` // default true
	GateLossFactor  float64 `json:"gate_loss_factor"`
	FlushPartial    *bool   `json:"flush_partial"` // default true
	BoundDelta      float64 `json:"bound_delta"`
	DeadlineSeconds float64 `json:"deadline_seconds"` // per-window identification deadline
}

func (sp windowSpec) config() core.WindowConfig {
	cfg := core.WindowConfig{
		Size:           sp.Size,
		Duration:       sp.Duration,
		Stride:         sp.Stride,
		StrideDuration: sp.StrideDuration,
		BoundDelta:     sp.BoundDelta,
		FlushPartial:   sp.FlushPartial == nil || *sp.FlushPartial,
		DisableGate:    sp.Gate != nil && !*sp.Gate,
		Deadline:       time.Duration(sp.DeadlineSeconds * float64(time.Second)),
	}
	cfg.Gate.LossRateFactor = sp.GateLossFactor
	return cfg
}

// obsJSON mirrors the CSV observation columns.
type obsJSON struct {
	Seq      int64   `json:"seq"`
	SendTime float64 `json:"send_time"`
	Delay    float64 `json:"delay"`
	Lost     bool    `json:"lost"`
}

// Handler returns the monitor's HTTP API:
//
//	GET    /livez                         liveness: 200 while the process serves at all
//	GET    /readyz                        readiness: per-component health (503 while draining)
//	GET    /healthz                       compat alias of /readyz
//	GET    /metrics                       expvar counter set as JSON
//	GET    /v1/paths                      session registry
//	PUT    /v1/paths/{id}                 create a session (optional window spec)
//	GET    /v1/paths/{id}                 one session's status
//	DELETE /v1/paths/{id}                 drain + flush; on a closed session, remove
//	POST   /v1/paths/{id}/observations    ingest a JSON or CSV batch (429 = back off)
//	GET    /v1/paths/{id}/results         decided windows as JSON (?since=N)
//	GET    /v1/paths/{id}/events          SSE feed (window/transition/closed events)
//	GET    /debug/traces                  slowest recent window traces (JSON)
//
// GET /v1/paths/{id}/results with "Accept: text/event-stream" serves the
// SSE feed too, so one URL works for both polling and streaming clients.
//
// With observability configured (Config.Logger), every request is wrapped
// in access logging: an X-Request-Id response header carrying a
// process-unique id, and one http_request log line (debug for success,
// warn for 5xx) stamped with the same id.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /livez", m.handleLive)
	mux.HandleFunc("GET /readyz", m.handleReady)
	mux.HandleFunc("GET /healthz", m.handleReady)
	mux.HandleFunc("GET /metrics", m.metrics.serveHTTP)
	mux.HandleFunc("GET /v1/paths", m.handleList)
	mux.HandleFunc("PUT /v1/paths/{id}", m.handlePut)
	mux.HandleFunc("GET /v1/paths/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /v1/paths/{id}", m.handleDelete)
	mux.HandleFunc("POST /v1/paths/{id}/observations", m.handleIngest)
	mux.HandleFunc("GET /v1/paths/{id}/results", m.handleResults)
	mux.HandleFunc("GET /v1/paths/{id}/events", m.handleEvents)
	mux.Handle("GET /debug/traces", m.obs.Ring()) // nil ring serves an empty list
	if !m.obs.Enabled() {
		return mux
	}
	return &loggingHandler{next: mux, obs: m.obs}
}

// loggingHandler is the access-log middleware: it assigns each request a
// process-unique id (echoed in X-Request-Id so a client error report can
// be matched to its log line), captures the response status and size, and
// emits one http_request event after the handler returns.
type loggingHandler struct {
	next  http.Handler
	obs   *obs.Observer
	reqID atomic.Uint64
}

func (h *loggingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.reqID.Add(1)
	w.Header().Set("X-Request-Id", strconv.FormatUint(id, 10))
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing: net/http's implied 200
	}
	h.obs.HTTPRequest(id, r.Method, r.URL.Path, status, sw.bytes, time.Since(start))
}

// statusWriter records the status code and body size of a response. It
// forwards Flush so the SSE handler's streaming still works through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(mustJSON(v))
	w.Write([]byte("\n"))
}

// Stable machine-readable error codes of the /v1 error envelope. Every
// non-2xx response from the API carries {"error": {"code", "message"}}
// with one of these codes, so clients branch on the code instead of
// parsing messages or memorizing per-endpoint status conventions.
const (
	codeBadRequest      = "bad_request"
	codeNotFound        = "not_found"
	codeQueueFull       = "queue_full"
	codeRateLimited     = "rate_limited"
	codeSessionClosed   = "session_closed"
	codeShuttingDown    = "shutting_down"
	codeTooManySessions = "too_many_sessions"
	codeInternal        = "internal"
)

// errorBody builds the error envelope; callers may add sibling fields
// (the 429 ingest response carries accepted/dropped next to the error).
func errorBody(code, message string) map[string]any {
	return map[string]any{"error": map[string]string{"code": code, "message": message}}
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody(code, fmt.Sprintf(format, args...)))
}

// errStatus maps the session/monitor sentinel errors onto (HTTP status,
// envelope code) pairs, uniformly across every endpoint.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, codeShuttingDown
	case errors.Is(err, ErrTooManySessions):
		return http.StatusServiceUnavailable, codeTooManySessions
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests, codeRateLimited
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, codeQueueFull
	case errors.Is(err, ErrSessionClosed):
		return http.StatusConflict, codeSessionClosed
	default:
		return http.StatusBadRequest, codeBadRequest
	}
}

// retryAfterSeconds renders a backoff hint as a whole-second Retry-After
// value, at least 1 so clients never busy-loop.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleLive is the liveness probe: 200 whenever the process can answer
// HTTP at all, even while draining — restarting a pod because it is
// shutting down cleanly would be counterproductive. Orchestrators should
// restart on liveness failure and unroute on readiness failure.
func (m *Monitor) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// healthJSON is the /readyz body: one overall status plus the state of
// every component an operator would otherwise assemble from /metrics,
// the session registry, and the store.
type healthJSON struct {
	// Status is "ok", "degraded" (serving, but the store is buffering in
	// memory or a session is failed/stalled), or "draining" (shutting
	// down; the only status served with a 503).
	Status   string             `json:"status"`
	Breaker  string             `json:"breaker"`
	Store    *storeHealthJSON   `json:"store,omitempty"`
	Sessions sessionsHealthJSON `json:"sessions"`
}

type storeHealthJSON struct {
	// Mode is "durable", or "degraded" when at least one path log is
	// buffering appends in memory behind a disk fault.
	Mode          string   `json:"mode"`
	DegradedPaths []string `json:"degraded_paths,omitempty"`
	// PendingRecords and DroppedRecords are the in-memory buffer gauge
	// and the lifetime overflow/shutdown drop count across all logs.
	PendingRecords int64 `json:"pending_records"`
	DroppedRecords int64 `json:"dropped_records"`
}

type sessionsHealthJSON struct {
	Active   int `json:"active"`
	Draining int `json:"draining"`
	Closed   int `json:"closed"`
	Failed   int `json:"failed"`
	Stalled  int `json:"stalled"`
	// Queued is the total observation backlog across session queues.
	Queued int64 `json:"queued_observations"`
}

// handleReady is the readiness probe: 503 only while draining (stop
// routing new work here), otherwise 200 with per-component detail. A
// degraded store or a failed/stalled session keeps the daemon ready —
// it is still the best server of its paths — but flips Status to
// "degraded" so dashboards and alerts see the transition the moment it
// happens.
func (m *Monitor) handleReady(w http.ResponseWriter, _ *http.Request) {
	h := healthJSON{Status: "ok", Breaker: m.breaker.State()}
	if st := m.store; st != nil {
		sh := &storeHealthJSON{
			Mode:           "durable",
			DegradedPaths:  st.DegradedPaths(),
			PendingRecords: st.Metrics().RecordsPending.Load(),
			DroppedRecords: st.Metrics().RecordsDropped.Load(),
		}
		if len(sh.DegradedPaths) > 0 {
			sh.Mode = "degraded"
			h.Status = "degraded"
		}
		h.Store = sh
	}
	for _, s := range m.Statuses() {
		switch s.State {
		case "active":
			h.Sessions.Active++
		case "draining":
			h.Sessions.Draining++
		case "failed":
			h.Sessions.Failed++
			h.Status = "degraded"
		default:
			h.Sessions.Closed++
		}
		if s.Stalled {
			h.Sessions.Stalled++
			h.Status = "degraded"
		}
		h.Sessions.Queued += int64(s.QueueLen)
	}
	if m.Closing() {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (m *Monitor) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"paths": m.Statuses()})
}

func (m *Monitor) handlePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wcfg *core.WindowConfig
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		var spec windowSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "window spec: %v", err)
			return
		}
		cfg := spec.config()
		wcfg = &cfg
	}
	s, created, err := m.Open(id, wcfg)
	if err != nil {
		status, code := errStatus(err)
		writeError(w, status, code, "%v", err)
		return
	}
	code := http.StatusOK // existing session; the spec, if any, is ignored
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, s.Status())
}

func (m *Monitor) handleStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown path %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (m *Monitor) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s, ok := m.Session(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown path %q", id)
		return
	}
	if st := s.State(); st == StateClosed || st == StateFailed {
		m.Remove(id)
		writeJSON(w, http.StatusOK, s.Status())
		return
	}
	// Drain: the pipeline finishes its backlog and flushes the final
	// partial window; the closed session stays queryable until a second
	// DELETE removes it.
	s.Drain()
	if err := s.Wait(r.Context()); err != nil {
		writeJSON(w, http.StatusAccepted, s.Status()) // still draining
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (m *Monitor) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Decode first, so a rejected body creates no session.
	batch, err := decodeBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	s, _, err := m.Open(id, nil) // auto-create with the default window shape
	if err != nil {
		trace.PutBatch(batch)
		status, code := errStatus(err)
		writeError(w, status, code, "%v", err)
		return
	}
	offered := batch.Len()
	accepted, err := s.OfferBatch(batch)
	if accepted == 0 {
		trace.PutBatch(batch) // none of it was queued
	}
	var rl *RateLimitedError
	switch {
	case errors.Is(err, ErrQueueFull), errors.As(err, &rl):
		// Backpressure: everything up to `accepted` IS ingested; the client
		// should back off per Retry-After and resend from that offset. The
		// 429 body carries the envelope plus the accepted/dropped split.
		retry := "1"
		if rl != nil {
			retry = retryAfterSeconds(rl.RetryAfter)
		}
		w.Header().Set("Retry-After", retry)
		status, code := errStatus(err)
		body := errorBody(code, err.Error())
		body["path"], body["accepted"], body["dropped"] = id, accepted, offered-accepted
		writeJSON(w, status, body)
	case errors.Is(err, ErrSessionClosed):
		writeError(w, http.StatusConflict, codeSessionClosed, "path %q is %s", id, s.State())
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"path": id, "accepted": accepted, "dropped": offered - accepted,
		})
	}
}

// Ingest decode buffers, reused across POSTs: a CSV body is read through
// a pooled reader of the size trace.StreamCSV asks for (so it uses the
// reader as is instead of allocating one per request), and a JSON body
// is read into a pooled buffer and unmarshalled into pooled rows. Either
// decodes into a batch from trace.GetBatch, which the session queue's
// consumer hands back. A buffer that grew past maxPooledBody, or rows
// past maxPooledRows, for an unusually large POST are left to the GC
// rather than kept.
const (
	maxPooledBody = 64 << 10
	maxPooledRows = 4096
)

var (
	csvReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
	jsonBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	jsonRows   = sync.Pool{New: func() any { return new([]obsJSON) }}
)

// decodeBatch reads one ingestion body into a columnar batch: CSV in the
// trace format when the Content-Type says so, else a JSON array of
// observations (bare or under an "observations" key). The batch goes
// straight from the wire decode to the session queue — no intermediate
// row-major slice survives the call.
func decodeBatch(r *http.Request) (*trace.Batch, error) {
	body := http.MaxBytesReader(nil, r.Body, maxIngestBody)
	batch := trace.GetBatch()
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "csv") {
		br := csvReaders.Get().(*bufio.Reader)
		br.Reset(body)
		defer func() {
			br.Reset(nil)
			csvReaders.Put(br)
		}()
		src := trace.StreamCSV(br)
		for {
			_, err := src.NextBatch(batch, 0)
			if err == io.EOF {
				return batch, nil
			}
			if err != nil {
				trace.PutBatch(batch)
				return nil, err
			}
		}
	}
	if err := decodeJSONRows(body, batch); err != nil {
		trace.PutBatch(batch)
		return nil, err
	}
	return batch, nil
}

// decodeJSONRows appends the observations of a JSON ingest body to batch.
func decodeJSONRows(body io.Reader, batch *trace.Batch) error {
	buf := jsonBodies.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			jsonBodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		return fmt.Errorf("reading body: %v", err)
	}
	pooled := jsonRows.Get().(*[]obsJSON)
	// json.Unmarshal reuses the elements of a slice's capacity without
	// zeroing them, so a key a POST omits would keep the last POST's value.
	rows := *pooled
	clear(rows[:cap(rows)])
	rows = rows[:0]
	defer func() {
		if cap(rows) <= maxPooledRows {
			*pooled = rows
			jsonRows.Put(pooled)
		}
	}()
	raw := bytes.TrimSpace(buf.Bytes())
	if len(raw) > 0 && raw[0] == '{' {
		wrapped := struct {
			Observations *[]obsJSON `json:"observations"`
		}{&rows}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			return fmt.Errorf("observations: %v", err)
		}
	} else if err := json.Unmarshal(raw, &rows); err != nil {
		return fmt.Errorf("observations: %v", err)
	}
	for i, row := range rows {
		if !row.Lost && row.Delay < 0 {
			return fmt.Errorf("observation %d: negative delay %v on a delivered probe", i, row.Delay)
		}
		o := trace.Observation{Seq: row.Seq, SendTime: row.SendTime, Lost: row.Lost}
		if !row.Lost {
			o.Delay = row.Delay
		}
		batch.Append(o)
	}
	return nil
}

func (m *Monitor) handleResults(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		m.handleEvents(w, r)
		return
	}
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown path %q", r.PathValue("id"))
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "since: %q is not a window index", q)
			return
		}
		since = n
	}
	// The reply streams: each record is encoded and written as the log
	// scan yields it, so a reply holds one segment and the ring snapshot
	// in memory however long the path's history. Its bytes are those of
	// json.Marshal over {"next","path","results","state"} plus a newline:
	// keys in sorted order, each record marshalled alone, [] when empty,
	// and the state read after the results. bufio.Writer errors are
	// sticky, so the last write of each step reports a failure in any.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 32<<10)
	var enc recordEncoder
	sep := ""
	err := s.eachResult(since, func(next int) error {
		_, err := fmt.Fprintf(bw, `{"next":%d,"path":%s,"results":[`, next, mustJSON(s.ID()))
		return err
	}, func(wj *WindowJSON) error {
		b, err := enc.encode(r.Context(), wj)
		if err != nil {
			return err
		}
		bw.WriteString(sep)
		sep = ","
		_, err = bw.Write(b)
		return err
	})
	if err == nil {
		fmt.Fprintf(bw, "],\"state\":%s}\n", mustJSON(s.State().String()))
		err = bw.Flush()
	}
	if err != nil {
		// The 200 is out, and maybe part of the body: abort, so net/http
		// closes the connection without the chunked terminator. The
		// client sees a transport error, never a short body that parses,
		// and net/http logs no stack trace for this panic.
		panic(http.ErrAbortHandler)
	}
}

// recordEncoder encodes one streamed record at a time into a reused
// buffer, with json.Marshal's bytes (HTML escaping on, no trailing
// newline) but without a fresh allocation per record.
type recordEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encode returns v's JSON, valid until the next call. It fails once ctx
// is done, so a reply to a client that went away stops at the next
// record instead of encoding the rest of the scan.
func (e *recordEncoder) encode(ctx context.Context, v any) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return e.buf.Bytes()[:e.buf.Len()-1], nil
}

// handleEvents serves the SSE feed: every window result as a "window"
// event, DCL transitions additionally as "transition" events, and a
// terminal "closed" event carrying the final session status. Window and
// transition events carry the absolute window index as the SSE `id:`
// line; a reconnecting client echoes it back as Last-Event-ID and the
// handler replays every window after it — from the in-memory ring or,
// once the index has aged out of it, from the durable store — before
// resuming the live feed, so a dropped connection (or even a daemon
// restart) never loses events.
func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := m.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown path %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "response writer cannot stream")
		return
	}
	backfillFrom := -1 // -1: no backfill requested
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.Atoi(lid)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "Last-Event-ID: %q is not a window index", lid)
			return
		}
		backfillFrom = n + 1
	}
	// Subscribe before replaying so no window falls between the replay
	// snapshot and the live feed; windows seen by the replay are filtered
	// out of the live loop by index instead.
	events, cancel := s.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": watching %s\n\n", s.ID())

	emit := func(typ string, index int, data []byte) error {
		if index >= 0 {
			fmt.Fprintf(w, "id: %d\n", index)
		}
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
		return err
	}
	replayedThrough := -1
	if backfillFrom >= 0 {
		// Backfilled events are written as the log scan yields them, like
		// a /results reply, and a failed encode or write aborts the same way.
		var enc recordEncoder
		err := s.eachResult(backfillFrom, func(next int) error {
			replayedThrough = next - 1
			return nil
		}, func(wj *WindowJSON) error {
			data, err := enc.encode(r.Context(), eventJSON{Path: s.ID(), WindowJSON: *wj})
			if err != nil {
				return err
			}
			if err := emit("window", wj.Window, data); err != nil || wj.Transition == "" {
				return err
			}
			return emit("transition", wj.Window, data)
		})
		if err != nil {
			panic(http.ErrAbortHandler)
		}
	}
	fl.Flush()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Index >= 0 && ev.Index <= replayedThrough {
				continue // the backfill already delivered this window
			}
			emit(ev.Type, ev.Index, ev.Data)
			fl.Flush()
		}
	}
}
