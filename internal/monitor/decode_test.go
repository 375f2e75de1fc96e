package monitor

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dominantlink/internal/trace"
)

// ingestRows makes n observations from seq; every ninth is lost.
func ingestRows(seq, n int) []trace.Observation {
	obs := make([]trace.Observation, n)
	for i := range obs {
		k := seq + i
		obs[i] = trace.Observation{Seq: int64(k), SendTime: float64(k) * 0.02, Lost: k%9 == 0}
		if !obs[i].Lost {
			obs[i].Delay = 0.0125 + float64(k%13)/1000
		}
	}
	return obs
}

// ingestBody renders observations as an ingest POST body: the CSV trace
// format or a JSON array, with floats in shortest round-trip form.
func ingestBody(csv bool, obs []trace.Observation) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	if !csv {
		b.WriteByte('[')
	}
	for i, o := range obs {
		if csv {
			lost := 0
			if o.Lost {
				lost = 1
			}
			fmt.Fprintf(&b, "%d,%s,%s,%d\n", o.Seq, f(o.SendTime), f(o.Delay), lost)
			continue
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"seq":%d,"send_time":%s,"delay":%s,"lost":%v}`, o.Seq, f(o.SendTime), f(o.Delay), o.Lost)
	}
	if !csv {
		b.WriteByte(']')
	}
	return b.String()
}

// ingestRequest is an ingest POST of body, typed CSV or JSON.
func ingestRequest(csv bool, body string) *http.Request {
	req := httptest.NewRequest("POST", "/v1/paths/p/observations", strings.NewReader(body))
	if csv {
		req.Header.Set("Content-Type", "text/csv")
	}
	return req
}

// TestDecodeBatchAllocBytes bounds the bytes one decode of a 100-row
// POST allocates: the CSV branch reads through a pooled 64 KiB reader
// and the JSON branch into a pooled buffer, so neither allocates a read
// buffer per request.
func TestDecodeBatchAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const runs = 200
	for _, csv := range []bool{true, false} {
		body := ingestBody(csv, ingestRows(0, 100))
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			reqs[i] = ingestRequest(csv, body)
		}
		if _, err := decodeBatch(reqs[runs]); err != nil { // warm the pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs[:runs] {
			if _, err := decodeBatch(req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("csv=%v: %d B per decode of a %d-byte body", csv, per, len(body))
		if csv && per >= 16<<10 {
			t.Fatalf("a 100-row CSV decode allocated %d B, want < 16 KiB", per)
		}

		// Decode, then hand the batch back as the session queue's consumer
		// does: the rows, the batch and the read buffers are all reused.
		for i := range reqs {
			reqs[i] = ingestRequest(csv, body)
		}
		runtime.ReadMemStats(&before)
		for _, req := range reqs[:runs] {
			b, err := decodeBatch(req)
			if err != nil {
				t.Fatal(err)
			}
			trace.PutBatch(b)
		}
		runtime.ReadMemStats(&after)
		per = (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("csv=%v: %d B per decode and hand-back", csv, per)
		if limit := map[bool]uint64{true: 4 << 10, false: 2 << 10}[csv]; per >= limit {
			t.Fatalf("csv=%v: a 100-row decode and hand-back allocated %d B, want < %d B", csv, per, limit)
		}
	}
}

// TestDecodeBatchReusedBuffers decodes a long body and then a shorter
// one through the same pooled buffers: the second batch must hold
// exactly the short body's rows, nothing left over from the first.
func TestDecodeBatchReusedBuffers(t *testing.T) {
	for _, csv := range []bool{true, false} {
		want := ingestRows(1000, 7)
		long, short := ingestBody(csv, ingestRows(0, 300)), ingestBody(csv, want)
		if b, err := decodeBatch(ingestRequest(csv, long)); err != nil || b.Len() != 300 {
			t.Fatalf("csv=%v: long body decoded to %v, %v", csv, b, err)
		}
		b, err := decodeBatch(ingestRequest(csv, short))
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Observations(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("csv=%v: short body after a long one decoded to\n%v\nwant\n%v", csv, got, want)
		}
	}

	// json.Unmarshal reuses the elements of a pooled row slice: a key the
	// second body omits must not keep the first body's value.
	lost := make([]trace.Observation, 20)
	for i := range lost {
		lost[i] = trace.Observation{Seq: int64(i), SendTime: float64(i) * 0.02, Lost: true}
	}
	if b, err := decodeBatch(ingestRequest(false, ingestBody(false, lost))); err != nil || b.LossCount() != 20 {
		t.Fatalf("all-lost body decoded to %v, %v", b, err)
	} else {
		trace.PutBatch(b)
	}
	b, err := decodeBatch(ingestRequest(false, `[{"seq":7,"send_time":0.14,"delay":0.02},{"seq":8,"send_time":0.16,"delay":0.03}]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Observation{{Seq: 7, SendTime: 0.14, Delay: 0.02}, {Seq: 8, SendTime: 0.16, Delay: 0.03}}
	if got := b.Observations(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows omitting \"lost\" after an all-lost body decoded to\n%v\nwant delivered\n%v", got, want)
	}
}
