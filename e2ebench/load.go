package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxInFlight bounds the generator's concurrent requests (SSE streams
// aside): the daemon is measured well below the client's own limits.
const maxInFlight = 2

// timing is set while a timed phase runs; building a request body then
// is refused (see encodeBody).
var timing atomic.Bool

// client issues the generator's requests and counts them.
type client struct {
	base string
	http *http.Client
	sse  *http.Client

	slots       chan struct{}
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	non2xx      atomic.Int64
}

func newClient(base string) *client {
	return &client{
		base:  base,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxInFlight + 1}},
		sse:   &http.Client{Transport: &http.Transport{}},
		slots: make(chan struct{}, maxInFlight),
	}
}

// close releases the client's idle connections.
func (c *client) close() {
	c.http.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// reply is the outcome of one request.
type reply struct {
	due, sent, done time.Time
	status          int
	body            []byte // nil for a replay GET past the first of its path
	size            int
	sum             uint32 // CRC of the body
	err             error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// do sends one request under the in-flight bound and reads the whole
// response.
func (c *client) do(method, path, ctype string, body []byte) reply {
	c.slots <- struct{}{}
	defer func() { <-c.slots }()
	n := c.inFlight.Add(1)
	for {
		m := c.maxInFlight.Load()
		if n <= m || c.maxInFlight.CompareAndSwap(m, n) {
			break
		}
	}
	defer c.inFlight.Add(-1)

	var r reply
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	r.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if r.status < 200 || r.status >= 300 {
		c.non2xx.Add(1)
	}
	return r
}

// verdict is one SSE window event as the generator received it.
type verdict struct {
	index   int
	arrived time.Time
	data    []byte
}

// feed is one path's SSE stream, read into memory as events arrive.
type feed struct {
	resp   *http.Response
	mu     sync.Mutex
	got    []verdict
	notify chan struct{}
	done   chan struct{}
	err    error
}

// subscribe opens the SSE stream of a path. The daemon subscribes the
// stream before it answers, so no window of a later POST is missed.
func (c *client) subscribe(id string) (*feed, error) {
	resp, err := c.sse.Get(c.base + "/v1/paths/" + id + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	f := &feed{resp: resp, notify: make(chan struct{}, 1), done: make(chan struct{})}
	go f.read()
	return f, nil
}

func (f *feed) read() {
	defer close(f.done)
	br := bufio.NewReaderSize(f.resp.Body, 64<<10)
	var event string
	index := -1
	var data []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			switch {
			case errors.Is(err, bufio.ErrBufferFull):
				f.err = errors.New("SSE line longer than the read buffer")
			case !errors.Is(err, io.EOF):
				f.err = err
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "window" && data != nil {
				f.mu.Lock()
				f.got = append(f.got, verdict{index: index, arrived: time.Now(), data: data})
				f.mu.Unlock()
				select {
				case f.notify <- struct{}{}:
				default:
				}
			}
			event, index, data = "", -1, nil
		case bytes.HasPrefix(line, []byte("id: ")):
			index, _ = strconv.Atoi(string(line[4:]))
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[6:]...)
		}
	}
}

// waitFor blocks until the feed holds n verdicts or the deadline passes.
func (f *feed) waitFor(n int, deadline time.Time) bool {
	for {
		f.mu.Lock()
		have := len(f.got)
		f.mu.Unlock()
		if have >= n {
			return true
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		select {
		case <-f.notify:
		case <-f.done:
			f.mu.Lock()
			have = len(f.got)
			f.mu.Unlock()
			return have >= n
		case <-time.After(left):
		}
	}
}

// verdicts returns a snapshot of the received window events.
func (f *feed) verdicts() []verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]verdict(nil), f.got...)
}

// close ends the stream and waits for its reader.
func (f *feed) close() {
	f.resp.Body.Close()
	<-f.done
}

// request is one entry of a lane's schedule: a POST of a live path's body
// or a replay GET of a recovered path, due at an offset from phase start.
type request struct {
	due        time.Duration
	path       int    // live path of a POST
	post       int    // POST index within the path; -1 for a replay GET
	replay     string // recovered path id of a replay GET
	digestOnly bool   // keep only the reply body's size and CRC
}

// runLanes runs each lane's requests in order, each no earlier than its
// due time; lanes run concurrently under the client's in-flight bound.
// One lane per live path keeps each path's observations in order. The
// open loop never waits for a verdict; a request that cannot start on
// time is late, and its lateness shows in reply.sent - reply.due.
func (r *session) runLanes(lanes [][]request) [][]reply {
	out := make([][]reply, len(lanes))
	start := time.Now()
	var wg sync.WaitGroup
	for i, lane := range lanes {
		out[i] = make([]reply, len(lane))
		wg.Add(1)
		go func(lane []request, replies []reply) {
			defer wg.Done()
			for j, rq := range lane {
				due := start.Add(rq.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				var rep reply
				if rq.post >= 0 {
					pp := r.plan.paths[rq.path]
					ctype := "application/json"
					if pp.csv {
						ctype = "text/csv"
					}
					rep = r.c.do(http.MethodPost, "/v1/paths/"+pp.id+"/observations", ctype, pp.bodies[rq.post])
				} else {
					rep = r.c.do(http.MethodGet, "/v1/paths/"+rq.replay+"/results?since=0", "", nil)
					rep.size, rep.sum = len(rep.body), crc32.Checksum(rep.body, crcTable)
					if rq.digestOnly {
						rep.body = nil // multi-MiB; compared by digest
					}
				}
				rep.due = due
				replies[j] = rep
			}
		}(lane, out[i])
	}
	wg.Wait()
	return out
}

// postAccepted checks an ingest reply: 200 with every observation
// accepted and none dropped.
func postAccepted(rep reply, n int) bool {
	if !rep.ok() {
		return false
	}
	var body struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.Unmarshal(rep.body, &body); err != nil {
		return false
	}
	return body.Accepted == n && body.Dropped == 0
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)
