package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The segment files are the log's only state on disk. These tests pin
// what a reopen rebuilds from them: the window counter, exact Stats, age
// retention, offset-addressed scans, and how little of the sealed
// segments the open reads.

func appendRecords(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenCounterAfterRetention: byte retention below one segment
// deletes sealed segments at every roll, but never the newest sealed one,
// so a log that ends right after a roll still reopens with the counter
// one past its last window.
func TestReopenCounterAfterRetention(t *testing.T) {
	dir := t.TempDir()
	opts := func(o *Options) {
		o.SegmentBytes = 2048
		o.RetainBytes = 1024
	}
	s := openTestStore(t, dir, opts)
	l, _ := s.Log("p")
	const n = 34
	appendRecords(t, l, 0, n)
	if l.activeScan.records != 0 {
		t.Fatalf("setup: append %d did not end on a roll (%d records in the tail)", n, l.activeScan.records)
	}
	if st := l.Stats(); st.Segments != 2 || st.FirstIndex == 0 {
		t.Fatalf("setup: retention kept %+v, want the newest sealed segment plus the tail", st)
	}
	s.Close()

	s2 := openTestStore(t, dir, opts)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextIndex(); got != n {
		t.Fatalf("NextIndex after reopen = %d, want %d", got, n)
	}
	got := collect(t, l2, 0)
	if len(got) == 0 || got[len(got)-1].Window.Window != n-1 {
		t.Fatalf("reopened log lost its last window: %d records", len(got))
	}
}

// TestRetentionByAgeAcrossReopen: segments an earlier process sealed are
// kept while they are younger than RetainAge and deleted at the first
// roll after they pass it, all but the newest sealed segment.
func TestRetentionByAgeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	opts := func(o *Options) {
		o.SegmentBytes = 2048
		o.RetainAge = time.Hour
		o.Now = func() time.Time { return now }
	}
	appendStamped := func(l *Log, i int) {
		rec := testRecord(i)
		rec.AppendedAt = 0 // let the store clock stamp it
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	s := openTestStore(t, dir, opts)
	l, _ := s.Log("p")
	for i := 0; i < 60; i++ {
		appendStamped(l, i)
	}
	before := l.Stats()
	if before.Segments < 4 {
		t.Fatalf("setup produced only %d segments", before.Segments)
	}
	s.Close()

	// Half an hour on, nothing has passed RetainAge: a roll deletes nothing.
	now = now.Add(30 * time.Minute)
	s2 := openTestStore(t, dir, opts)
	l2, _ := s2.Log("p")
	appendStamped(l2, 60)
	if err := l2.Roll(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.FirstIndex != 0 || st.Segments != before.Segments+1 {
		t.Fatalf("young segments deleted: before %+v, after %+v", before, st)
	}
	s2.Close()

	// Two hours on, every segment but the one sealed below has passed it.
	now = now.Add(90 * time.Minute)
	s3 := openTestStore(t, dir, opts)
	l3, _ := s3.Log("p")
	appendStamped(l3, 61)
	if err := l3.Roll(); err != nil {
		t.Fatal(err)
	}
	st := l3.Stats()
	if st.Segments != 2 || st.FirstIndex != 61 || st.Records != 1 {
		t.Fatalf("after the first roll past RetainAge: %+v, want only window 61 plus the tail", st)
	}
	if l3.NextIndex() != 62 {
		t.Fatalf("NextIndex = %d, want 62", l3.NextIndex())
	}
}

// TestScanSinceWithStraddlingTransitions: a transition record carries its
// window's index and follows it, so a window and its transition can sit
// on both sides of a roll, and a segment can hold nothing but one
// transition. Scan(since) must equal the full scan filtered by since for
// every since, before and after a reopen, with the tail empty or not.
func TestScanSinceWithStraddlingTransitions(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	l, _ := s.Log("p")
	add := func(l *Log, kind Kind, i int) {
		rec := Record{Kind: kind, AppendedAt: int64(1e18) + int64(i), Window: testWindow(i)}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	roll := func(l *Log) {
		if err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		add(l, KindWindow, i)
		switch i {
		case 4: // the pair straddles a roll
			roll(l)
			add(l, KindTransition, i)
		case 7: // a segment holding only the transition
			roll(l)
			add(l, KindTransition, i)
			roll(l)
		case 9: // the pair inside one segment, then a roll
			add(l, KindTransition, i)
			roll(l)
		}
	}
	roll(l) // end with an empty tail

	check := func(l *Log, records int) {
		t.Helper()
		all := collect(t, l, 0)
		if len(all) != records {
			t.Fatalf("full scan: %d records, want %d", len(all), records)
		}
		for since := int64(0); since <= l.NextIndex(); since++ {
			var want []Record
			for _, r := range all {
				if int64(r.Window.Window) >= since {
					want = append(want, r)
				}
			}
			if got := collect(t, l, since); !reflect.DeepEqual(got, want) {
				t.Fatalf("Scan(%d): %d records, want %d", since, len(got), len(want))
			}
		}
	}
	check(l, 15)
	s.Close()

	s2 := openTestStore(t, dir, nil)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextIndex() != 12 {
		t.Fatalf("NextIndex after reopen = %d, want 12", l2.NextIndex())
	}
	check(l2, 15)
	add(l2, KindWindow, 12)
	add(l2, KindTransition, 12)
	check(l2, 17)
}

// TestStatsExactAfterReopen: Stats counts the records, transitions, bytes
// and time range of sealed segments open did not scan.
func TestStatsExactAfterReopen(t *testing.T) {
	dir := t.TempDir()
	opts := func(o *Options) { o.SegmentBytes = 2048 }
	s := openTestStore(t, dir, opts)
	l, _ := s.Log("p")
	for i := 0; i < 100; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		if i%10 == 5 {
			trec := Record{Kind: KindTransition, AppendedAt: rec.AppendedAt, Window: rec.Window}
			if err := l.Append(&trec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := l.Stats()
	if before.Transitions != 10 || before.Records != 110 || before.Segments < 4 {
		t.Fatalf("setup stats = %+v", before)
	}
	s.Close()

	s2 := openTestStore(t, dir, opts)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatal(err)
	}
	if after := l2.Stats(); after != before {
		t.Fatalf("Stats after reopen:\n got %+v\nwant %+v", after, before)
	}
}

// countFS is the real filesystem, counting the bytes read from each file.
type countFS struct {
	osFS
	mu   sync.Mutex
	read map[string]int64 // by file base name
}

type countFile struct {
	File
	fs   *countFS
	name string
}

func (c *countFS) add(name string, n int) {
	c.mu.Lock()
	c.read[filepath.Base(name)] += int64(n)
	c.mu.Unlock()
}

func (c *countFS) Open(name string) (File, error) {
	f, err := c.osFS.Open(name)
	if err != nil {
		return nil, err
	}
	return countFile{f, c, name}, nil
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c, name}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	b, err := c.osFS.ReadFile(name)
	c.add(name, len(b))
	return b, err
}

func (f countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.add(f.name, n)
	return n, err
}

// TestOpenReadsOneFramePerSealedSegment pins the cost of a reopen: the
// whole tail segment, and of each sealed segment at most its magic header
// and first frame. Only when the tail holds no record may the newest
// sealed segment be read in full, for the window counter. A reopen that
// rescans every segment makes a restart of a long-lived daemon cost a
// full read of its history.
func TestOpenReadsOneFramePerSealedSegment(t *testing.T) {
	for _, emptyTail := range []bool{false, true} {
		dir := t.TempDir()
		opts := func(o *Options) { o.SegmentBytes = 2048 }
		s := openTestStore(t, dir, opts)
		l, _ := s.Log("p")
		appendRecords(t, l, 0, 100)
		if emptyTail {
			if err := l.Roll(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		names, err := segmentNames(osFS{}, filepath.Join(dir, "p"))
		if err != nil || len(names) < 4 {
			t.Fatalf("setup: segments %v, %v", names, err)
		}
		cfs := &countFS{read: map[string]int64{}}
		s2 := openTestStore(t, dir, func(o *Options) {
			opts(o)
			o.FS = cfs
		})
		l2, err := s2.Log("p")
		if err != nil {
			t.Fatal(err)
		}
		if l2.NextIndex() != 100 {
			t.Fatalf("emptyTail=%v: NextIndex = %d, want 100", emptyTail, l2.NextIndex())
		}
		for i, name := range names {
			raw, err := os.ReadFile(filepath.Join(dir, "p", name))
			if err != nil {
				t.Fatal(err)
			}
			read := cfs.read[name]
			switch {
			case i == len(names)-1:
				if read != int64(len(raw)) {
					t.Errorf("emptyTail=%v: tail %s: read %d of %d bytes", emptyTail, name, read, len(raw))
				}
			case i == len(names)-2 && emptyTail:
				if read > int64(len(raw)) {
					t.Errorf("emptyTail=%v: newest sealed %s: read %d of %d bytes", emptyTail, name, read, len(raw))
				}
			default:
				head := int64(len(segMagic) + frameHeader)
				head += int64(binary.LittleEndian.Uint32(raw[len(segMagic):]))
				if read > head {
					t.Errorf("emptyTail=%v: sealed %s: read %d bytes, want at most the %d of its magic and first frame",
						emptyTail, name, read, head)
				}
			}
		}
	}
}
