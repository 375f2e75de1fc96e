package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ObservationSource is a pull iterator over probe observations: the
// streaming counterpart of a materialized Trace. Next returns observations
// in probing order and io.EOF once the source is exhausted; any other
// error is a real failure of the underlying reader or parser. Sources are
// single-consumer and not safe for concurrent use.
type ObservationSource interface {
	Next() (Observation, error)
}

// SliceSource iterates an in-memory observation slice.
type SliceSource struct {
	obs []Observation
	i   int
}

// NewSliceSource returns a source yielding obs in order.
func NewSliceSource(obs []Observation) *SliceSource {
	return &SliceSource{obs: obs}
}

// Next implements ObservationSource.
func (s *SliceSource) Next() (Observation, error) {
	if s.i >= len(s.obs) {
		return Observation{}, io.EOF
	}
	o := s.obs[s.i]
	s.i++
	return o, nil
}

// Source returns a source over the trace's observations, for feeding a
// fully materialized trace into the streaming pipeline. The returned
// SliceSource is also a BatchSource: the whole trace drains in bulk.
func (t *Trace) Source() *SliceSource {
	return NewSliceSource(t.Observations)
}

// Collect drains a source into a materialized Trace. A source error other
// than io.EOF aborts the collection and is returned alongside the
// observations gathered so far.
func Collect(src ObservationSource) (*Trace, error) {
	t := &Trace{}
	for {
		o, err := src.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		t.Observations = append(t.Observations, o)
	}
}

// CSVSource incrementally parses a probe-trace CSV (as written by
// Trace.WriteCSV) into observations, one row per Next call, without
// materializing the file. It tolerates a header row, blank lines and CRLF
// line endings, reports parse errors with their line number, and rejects
// rows with a negative delay on a delivered probe. When the extended
// ground-truth columns are present they are parsed too and retrievable
// through Truth immediately after the Next call that consumed the row.
type CSVSource struct {
	cr      *csv.Reader
	br      *bufio.Reader // our buffer around r; Buffered()>0 = more rows promptly available
	pending error         // deferred terminal error after a partial NextBatch
	started bool          // first data row seen; fields count fixed
	wide    bool          // extended ground-truth columns present
	truth   GroundTruth
	hasGT   bool
}

// StreamCSV returns a source reading probe observations from r
// incrementally. The reader is consumed row by row: memory use is O(1) in
// the trace length.
func StreamCSV(r io.Reader) *CSVSource {
	// Our own bufio layer sits under the csv reader's so NextBatch can ask
	// "is more input promptly available?" (Buffered() > 0) and batch
	// greedily on files while staying prompt on live tails.
	br := bufio.NewReaderSize(r, 64<<10)
	cr := csv.NewReader(br)
	// Field-count consistency is enforced below with line-numbered errors;
	// letting the csv layer do it would also reject the header of a
	// truth-extended file following 4-field data rows (and vice versa).
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	return &CSVSource{cr: cr, br: br}
}

// NextBatch implements BatchSource: it blocks for the first row, then
// keeps appending rows while max allows and the underlying reader has
// bytes already buffered — so a materialized file drains in max-sized
// columns while a tailed live capture yields whatever has arrived without
// waiting for a full batch. A terminal error hit after at least one
// appended row is deferred to the next call.
func (s *CSVSource) NextBatch(dst *Batch, max int) (int, error) {
	if max <= 0 {
		max = 4096
	}
	n := 0
	for n < max {
		o, err := s.Next()
		if err != nil {
			if n > 0 {
				s.pending = err
				return n, nil
			}
			return 0, err
		}
		dst.Append(o)
		n++
		if s.br.Buffered() == 0 {
			break
		}
	}
	return n, nil
}

// Truth returns the ground-truth columns of the row consumed by the last
// Next call, when the file carries them (ok reports their presence).
func (s *CSVSource) Truth() (gt GroundTruth, ok bool) {
	return s.truth, s.hasGT
}

// blankRow reports a record whose fields are all empty or whitespace —
// e.g. a line of stray spaces or a trailing "\r\n" artifact.
func blankRow(row []string) bool {
	for _, f := range row {
		if strings.TrimSpace(f) != "" {
			return false
		}
	}
	return true
}

// Next implements ObservationSource.
func (s *CSVSource) Next() (Observation, error) {
	if s.pending != nil {
		err := s.pending
		s.pending = nil
		return Observation{}, err
	}
	for {
		row, err := s.cr.Read()
		if err != nil {
			return Observation{}, err // io.EOF or a csv-layer parse error
		}
		if blankRow(row) {
			continue
		}
		line, _ := s.cr.FieldPos(0)
		if !s.started && strings.TrimSpace(row[0]) == "seq" {
			continue // header
		}
		if len(row) != headerLen && len(row) != wideHeaderLen {
			return Observation{}, fmt.Errorf("trace: line %d: %d fields, want %d or %d",
				line, len(row), headerLen, wideHeaderLen)
		}
		wide := len(row) == wideHeaderLen
		if s.started && wide != s.wide {
			return Observation{}, fmt.Errorf("trace: line %d: %d fields, want %d as in earlier rows",
				line, len(row), fieldCount(s.wide))
		}
		s.started, s.wide = true, wide

		o, gt, err := parseRow(row, line)
		if err != nil {
			return Observation{}, err
		}
		s.hasGT = wide
		if wide {
			s.truth = gt
		}
		return o, nil
	}
}

func fieldCount(wide bool) int {
	if wide {
		return wideHeaderLen
	}
	return headerLen
}

// parseRow decodes one data row (observation columns, plus ground truth
// when the row is wide). line is used for error reporting only.
func parseRow(row []string, line int) (Observation, GroundTruth, error) {
	var o Observation
	var gt GroundTruth
	var err error
	field := func(i int) string { return strings.TrimSpace(row[i]) }

	if o.Seq, err = strconv.ParseInt(field(0), 10, 64); err != nil {
		return o, gt, fmt.Errorf("trace: line %d: seq: %v", line, err)
	}
	if o.SendTime, err = strconv.ParseFloat(field(1), 64); err != nil {
		return o, gt, fmt.Errorf("trace: line %d: send_time: %v", line, err)
	}
	if math.IsNaN(o.SendTime) || math.IsInf(o.SendTime, 0) {
		return o, gt, fmt.Errorf("trace: line %d: send_time: non-finite value %v", line, o.SendTime)
	}
	delay, err := strconv.ParseFloat(field(2), 64)
	if err != nil {
		return o, gt, fmt.Errorf("trace: line %d: delay: %v", line, err)
	}
	switch field(3) {
	case "0":
	case "1":
		o.Lost = true
	default:
		return o, gt, fmt.Errorf("trace: line %d: lost: %q is not 0 or 1", line, field(3))
	}
	if !o.Lost {
		if delay < 0 {
			return o, gt, fmt.Errorf("trace: line %d: negative delay %v on a delivered probe", line, delay)
		}
		if math.IsNaN(delay) || math.IsInf(delay, 0) {
			return o, gt, fmt.Errorf("trace: line %d: non-finite delay %v on a delivered probe", line, delay)
		}
		o.Delay = delay
	}
	if len(row) < wideHeaderLen {
		return o, gt, nil
	}

	gt.Seq, gt.Lost = o.Seq, o.Lost
	hop, err := strconv.ParseInt(field(4), 10, 32)
	if err != nil {
		return o, gt, fmt.Errorf("trace: line %d: lost_hop: %v", line, err)
	}
	gt.LostHop = int(hop)
	if !gt.Lost {
		gt.LostHop = -1
	}
	if gt.VirtualQueuing, err = strconv.ParseFloat(field(5), 64); err != nil {
		return o, gt, fmt.Errorf("trace: line %d: virtual_queuing: %v", line, err)
	}
	if per := field(6); per != "" {
		parts := strings.Split(per, perHopSep)
		gt.PerHopQueuing = make([]float64, len(parts))
		for k, p := range parts {
			if gt.PerHopQueuing[k], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
				return o, gt, fmt.Errorf("trace: line %d: per_hop_queuing[%d]: %v", line, k, err)
			}
		}
	}
	return o, gt, nil
}
