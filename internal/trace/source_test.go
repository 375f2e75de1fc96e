package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// drain pulls a source dry, failing the test on any non-EOF error.
func drain(t *testing.T, src ObservationSource) []Observation {
	t.Helper()
	var out []Observation
	for {
		o, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("source error: %v", err)
		}
		out = append(out, o)
	}
}

func TestSliceSource(t *testing.T) {
	tr := sample()
	got := drain(t, tr.Source())
	if !reflect.DeepEqual(got, tr.Observations) {
		t.Fatalf("slice source mismatch:\n got %+v\nwant %+v", got, tr.Observations)
	}
	// Exhausted sources keep returning io.EOF.
	src := tr.Source()
	drain(t, src)
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next = %v, want io.EOF", err)
	}
	if _, err := NewSliceSource(nil).Next(); err != io.EOF {
		t.Fatalf("empty source Next = %v, want io.EOF", err)
	}
}

func TestCollect(t *testing.T) {
	tr := sample()
	got, err := Collect(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Observations, tr.Observations) {
		t.Fatal("Collect changed the observations")
	}
}

func TestStreamCSVIncremental(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// One observation per Next, in order, without ReadAll-style slurping.
	src := StreamCSV(iotest{r: &buf})
	got := drain(t, src)
	if len(got) != len(tr.Observations) {
		t.Fatalf("streamed %d observations, want %d", len(got), len(tr.Observations))
	}
	for i, o := range got {
		w := tr.Observations[i]
		if o.Seq != w.Seq || o.Lost != w.Lost || o.SendTime != w.SendTime {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, o, w)
		}
	}
}

// iotest feeds the underlying reader one byte at a time, so any slurping
// parser would still work but a seek-dependent one would not.
type iotest struct{ r io.Reader }

func (s iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return s.r.Read(p)
}

func TestStreamCSVTruthColumns(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src := StreamCSV(&buf)
	for i := 0; ; i++ {
		o, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gt, ok := src.Truth()
		if !ok {
			t.Fatalf("row %d: truth columns lost in streaming", i)
		}
		want := tr.Truth[i]
		if gt.Lost != want.Lost || gt.VirtualQueuing != want.VirtualQueuing {
			t.Fatalf("row %d truth mismatch: %+v vs %+v", i, gt, want)
		}
		if o.Seq != want.Seq {
			t.Fatalf("row %d: observation/truth misaligned", i)
		}
	}
}

func TestStreamCSVTolerance(t *testing.T) {
	// CRLF endings, blank lines, stray whitespace-only lines: all accepted.
	in := "seq,send_time,delay,lost\r\n" +
		"0,0.0,0.010,0\r\n" +
		"\r\n" +
		"   \r\n" +
		"1,0.02,0,1\r\n" +
		"\n" +
		"2,0.04,0.012,0\r\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Observations) != 3 {
		t.Fatalf("parsed %d observations, want 3", len(tr.Observations))
	}
	if !tr.Observations[1].Lost || tr.Observations[2].Delay != 0.012 {
		t.Fatalf("tolerant parse mangled rows: %+v", tr.Observations)
	}
}

func TestStreamCSVErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name, in, wantLine string
	}{
		{"bad seq", "seq,send_time,delay,lost\nx,0,0,0\n", "line 2"},
		{"bad send_time", "seq,send_time,delay,lost\n1,0,0,0\n2,y,0,0\n", "line 3"},
		{"bad delay", "1,0,0,0\n2,0.02,z,0\n", "line 2"},
		{"bad lost flag", "1,0,0,2\n", "line 1"},
		{"negative delay", "seq,send_time,delay,lost\n1,0,-0.5,0\n", "line 2"},
		{"NaN delay", "seq,send_time,delay,lost\n1,0,0.01,0\n2,0.02,NaN,0\n", "line 3"},
		{"Inf delay", "1,0,Inf,0\n", "line 1"},
		{"+Inf delay", "1,0,0.01,0\n2,0.02,+Inf,0\n", "line 2"},
		{"NaN send_time", "seq,send_time,delay,lost\n1,NaN,0.01,0\n", "line 2"},
		{"Inf send_time on a lost row", "1,0,0.01,0\n2,-Inf,0,1\n", "line 2"},
		{"field count", "seq,send_time,delay,lost\n1,0,0\n", "line 2"},
		{"mixed width", "0,0,0.1,0\n1,0.02,0.1,0,2,0.05,0.01;0.04\n", "line 2"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.wantLine) {
			t.Fatalf("%s: error %q does not name %s", c.name, err, c.wantLine)
		}
	}
}

func TestNegativeDelayOnLostRowIgnored(t *testing.T) {
	// A lost probe has no defined delay; whatever sits in the column must
	// not fail the parse (and must not leak into the observation).
	tr, err := ReadCSV(strings.NewReader("1,0.02,-1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Observations[0].Lost || tr.Observations[0].Delay != 0 {
		t.Fatalf("lost row parsed as %+v", tr.Observations[0])
	}
}

func TestNonFiniteDelayOnLostRowIgnored(t *testing.T) {
	// Like a negative one, a NaN or Inf in the delay column of a lost row
	// is not a delay and must neither fail the parse nor leak through.
	tr, err := ReadCSV(strings.NewReader("1,0.02,NaN,1\n2,0.04,Inf,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tr.Observations {
		if !o.Lost || o.Delay != 0 {
			t.Fatalf("lost row parsed as %+v", o)
		}
	}
}

// randomTrace builds an arbitrary but valid trace; withTruth attaches
// aligned ground truth with random per-hop vectors.
func randomTrace(rng *rand.Rand, n int, withTruth bool) *Trace {
	tr := &Trace{PropagationDelay: rng.Float64() * 0.01}
	for i := 0; i < n; i++ {
		o := Observation{
			Seq:      int64(i),
			SendTime: float64(i) * 0.02,
			Lost:     rng.Float64() < 0.2,
		}
		if !o.Lost {
			o.Delay = rng.Float64() * 0.2
		}
		tr.Observations = append(tr.Observations, o)
		if withTruth {
			g := GroundTruth{Seq: int64(i), Lost: o.Lost, LostHop: -1, VirtualQueuing: rng.Float64() * 0.1}
			if o.Lost {
				g.LostHop = rng.Intn(4)
			}
			for h := 0; h < rng.Intn(4); h++ {
				g.PerHopQueuing = append(g.PerHopQueuing, rng.Float64()*0.05)
			}
			tr.Truth = append(tr.Truth, g)
		}
	}
	return tr
}

// TestCSVRoundTripProperty drives random traces — with and without
// ground-truth columns — through WriteCSV/ReadCSV and requires exact
// recovery of every field.
func TestCSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(rng, 1+rng.Intn(40), trial%2 == 0)
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Observations, tr.Observations) {
			t.Fatalf("trial %d: observations did not round-trip:\n got %+v\nwant %+v",
				trial, got.Observations, tr.Observations)
		}
		if len(tr.Truth) == 0 {
			if len(got.Truth) != 0 {
				t.Fatalf("trial %d: truth appeared from nowhere", trial)
			}
			continue
		}
		if len(got.Truth) != len(tr.Truth) {
			t.Fatalf("trial %d: truth length %d, want %d", trial, len(got.Truth), len(tr.Truth))
		}
		for i := range tr.Truth {
			w, g := tr.Truth[i], got.Truth[i]
			if g.Seq != w.Seq || g.Lost != w.Lost || g.LostHop != w.LostHop ||
				g.VirtualQueuing != w.VirtualQueuing {
				t.Fatalf("trial %d row %d: truth %+v, want %+v", trial, i, g, w)
			}
			if len(g.PerHopQueuing) != len(w.PerHopQueuing) {
				t.Fatalf("trial %d row %d: per-hop length %d, want %d",
					trial, i, len(g.PerHopQueuing), len(w.PerHopQueuing))
			}
			for k := range w.PerHopQueuing {
				if g.PerHopQueuing[k] != w.PerHopQueuing[k] {
					t.Fatalf("trial %d row %d hop %d: %v != %v",
						trial, i, k, g.PerHopQueuing[k], w.PerHopQueuing[k])
				}
			}
		}
	}
}
