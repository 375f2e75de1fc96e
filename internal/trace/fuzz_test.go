package trace

import (
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzStreamCSV drives the incremental CSV decoder over arbitrary input.
// The invariants under fuzzing: Next never panics, every row either
// yields a valid observation or a descriptive error, a non-EOF error is
// terminal for the row that caused it, every send time is finite, and
// delivered observations carry a finite, non-negative delay (the
// parser's own validation promise). The seed corpus covers the shapes the
// table tests exercise: headers, CRLF, blank rows, truth-extended rows,
// malformed fields, mixed widths, negative delays and non-finite values.
func FuzzStreamCSV(f *testing.F) {
	for _, seed := range []string{
		"",
		"seq,send_time,delay,lost\n0,0.0,0.010,0\n1,0.02,0,1\n",
		"seq,send_time,delay,lost\r\n0,0.0,0.010,0\r\n\r\n   \r\n1,0.02,0,1\r\n\n2,0.04,0.012,0\r\n",
		"seq,send_time,delay,lost,lost_hop,virtual_queuing,per_hop_queuing\n" +
			"0,0,0.01,0,-1,0.002,0.001;0.001\n1,0.02,0,1,2,0.16,0.15;0.01\n",
		"x,0,0,0\n",
		"1,0,0,0\n2,y,0,0\n",
		"1,0,z,0\n",
		"1,0,0,2\n",
		"1,0,-0.5,0\n",
		"1,0,-1,1\n",
		"seq,send_time,delay,lost\n1,0,0\n",
		"0,0,0.1,0\n1,0.02,0.1,0,2,0.05,0.01;0.04\n",
		"0,0,0.1,0,2,0.05,\n",
		"0,0,0.1,0,2,0.05,0.01;;0.04\n",
		"\"0\",\"0\",\"0.1\",\"0\"\n",
		"\"unterminated,0,0.1,0\n",
		"seq,send_time,delay,lost\nseq,send_time,delay,lost\n",
		"9223372036854775808,0,0.1,0\n",
		"0,1e309,0.1,0\n",
		",,,\n",
		"0,0,NaN,0\n",
		"0,0,Inf,0\n1,0.02,+Inf,0\n",
		"0,0,-Inf,0\n",
		"0,NaN,0.1,0\n",
		"0,inf,0,1\n",
		"0,0,nan,1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		src := StreamCSV(strings.NewReader(data))
		rows := 0
		for {
			o, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// A parse error must not be a panic in disguise, and one
				// more Next on the failed source must not crash either.
				src.Next()
				break
			}
			if !o.Lost && o.Delay < 0 {
				t.Fatalf("parser admitted a negative delay on a delivered probe: %+v", o)
			}
			if math.IsNaN(o.SendTime) || math.IsInf(o.SendTime, 0) {
				t.Fatalf("parser admitted a non-finite send time: %+v", o)
			}
			if !o.Lost && (math.IsNaN(o.Delay) || math.IsInf(o.Delay, 0)) {
				t.Fatalf("parser admitted a non-finite delay on a delivered probe: %+v", o)
			}
			if o.Lost && o.Delay != 0 {
				t.Fatalf("lost probe carries a delay: %+v", o)
			}
			src.Truth()
			if rows++; rows > 1<<16 {
				break // bound the fuzz iteration cost on giant inputs
			}
		}
	})
}
